package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wcoj/internal/agg"
	"wcoj/internal/baseline"
	"wcoj/internal/core"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// TestMixedWidthQuery joins relations whose tries have different key
// widths: R and T hold values above math.MaxUint32, so their tries stay
// wide, while S is uint32-narrowed. Every level then intersects wide
// with narrow keys (or binds a wide value on a narrowed trie), under
// both level strategies, in all four modes, serial and sharded —
// checked against the binary-join baseline.
func TestMixedWidthQuery(t *testing.T) {
	const huge = relation.Value(math.MaxUint32) + 1
	rng := rand.New(rand.NewSource(17))
	// Half of the A domain lies above the uint32 range.
	a := func() relation.Value {
		if v := relation.Value(rng.Intn(16)); v < 8 {
			return v
		} else {
			return huge + v
		}
	}
	small := func() relation.Value { return relation.Value(rng.Intn(8)) }
	r := relation.NewBuilder("R", "A", "B")
	s := relation.NewBuilder("S", "B", "C")
	tt := relation.NewBuilder("T", "A", "C")
	for i := 0; i < 90; i++ {
		r.Add(a(), small())
		s.Add(small(), small())
		tt.Add(a(), small())
	}
	rels := map[string]*relation.Relation{"R": r.Build(), "S": s.Build(), "T": tt.Build()}
	for name, wide := range map[string]bool{"R": true, "S": false, "T": true} {
		tr, err := trie.Build(rels[name], rels[name].Attrs())
		if err != nil {
			t.Fatal(err)
		}
		if tr.Narrowed() == wide {
			t.Fatalf("%s: Narrowed() = %v, fixture wants wide=%v", name, tr.Narrowed(), wide)
		}
	}
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: rels["R"]},
		{Name: "S", Vars: []string{"B", "C"}, Rel: rels["S"]},
		{Name: "T", Vars: []string{"A", "C"}, Rel: rels["T"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := baseline.JoinOnly(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wideResults := 0
	for _, tu := range want.Tuples() {
		if tu[0] >= huge {
			wideResults++
		}
	}
	if wideResults == 0 || wideResults == want.Len() {
		t.Fatalf("fixture: %d of %d results bind a wide value, want some of each", wideResults, want.Len())
	}

	ctx := context.Background()
	memo := new(core.TrieMemo)
	// enumerate materializes the search of q under pol; a nil project
	// enumerates full tuples.
	enumerate := func(pol core.OrderPolicy, lv core.LevelStrategy, workers int, project []string) (*relation.Relation, error) {
		attrs := q.Vars
		var p *core.Plan
		var cls *agg.Classification
		var err error
		if project == nil {
			p, err = core.BuildPlanSrc(memo, q, pol)
		} else {
			attrs = project
			p, cls, err = core.AggPlanSrc(memo, q, pol, agg.Spec{Mode: agg.ModeEnumerate, Project: project})
		}
		if err != nil {
			return nil, err
		}
		b := relation.NewBuilder("Q", attrs...)
		_, err = core.GenericJoinPlanVisit(ctx, p, cls, lv, workers, &core.Stats{}, func(tu relation.Tuple) error {
			return b.Add(tu...)
		})
		return b.Build(), err
	}
	for _, lv := range []core.LevelStrategy{core.MaterializeLevel, core.LeapfrogLevel} {
		for _, p := range []int{1, 4} {
			for _, order := range [][]string{nil, {"C", "B", "A"}} {
				var pol core.OrderPolicy
				if order != nil {
					pol = core.ExplicitOrder(order)
				}
				name := fmt.Sprintf("level=%d/p=%d/order=%v", lv, p, order)

				got, err := enumerate(pol, lv, p, nil)
				if err != nil || !got.Equal(want) {
					t.Fatalf("%s: enumerate: err=%v, %d tuples, want %d", name, err, got.Len(), want.Len())
				}
				for _, c := range []struct {
					mode agg.Mode
					want int64
				}{{agg.ModeCount, int64(want.Len())}, {agg.ModeExists, 1}} {
					ap, cls, err := core.AggPlanSrc(memo, q, pol, agg.Spec{Mode: c.mode})
					if err != nil {
						t.Fatal(err)
					}
					n, _, err := core.GenericJoinAggPlan(ctx, ap, cls, lv, p)
					if err != nil || n != c.want {
						t.Fatalf("%s: aggregate mode %v = %d, err=%v, want %d", name, c.mode, n, err, c.want)
					}
				}
				for _, project := range [][]string{{"A"}, {"C"}, {"B", "A"}} {
					wantProj, err := want.Project(project...)
					if err != nil {
						t.Fatal(err)
					}
					gotProj, err := enumerate(pol, lv, p, project)
					if err != nil || !gotProj.Equal(wantProj) {
						t.Fatalf("%s: project %v: err=%v, %d tuples, want %d", name, project, err, gotProj.Len(), wantProj.Len())
					}
				}
			}
		}
	}
}
