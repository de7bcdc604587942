package wcoj

import (
	"fmt"
	"strings"
	"testing"

	"wcoj/internal/dataset"
	"wcoj/internal/wal/walfault"
)

// faultStep is one write of the fault script, run against a durable DB.
type faultStep struct {
	name string
	run  func(db *DB) error
}

// faultScript drives every kind of durable write: Register (with new
// dictionary strings), Materialize, Apply (with and without new
// strings), a compaction's log rotation, and a view's retirement.
func faultScript() []faultStep {
	strs := func(db *DB, n int) Tuple {
		d := db.Dict()
		return Tuple{d.ID(fmt.Sprintf("a%d", n)), d.ID(fmt.Sprintf("b%d", n))}
	}
	edge := func(n int) *Batch {
		return NewBatch().Insert("E", Tuple{Value(100 + n), Value(n)}, Tuple{Value(n), Value(n + 1)}).Delete("E", Tuple{Value(n), Value(n + 2)})
	}
	return []faultStep{
		{"register E", func(db *DB) error { return db.Register(dataset.RandomGraph(15, 50, 5)) }},
		{"materialize count", func(db *DB) error {
			_, err := db.Materialize("T(A,B,C) :- E(A,B), E(B,C), E(C,A)", MaterializeOptions{})
			return err
		}},
		{"apply", func(db *DB) error { _, err := db.Apply(edge(1)); return err }},
		{"register S", func(db *DB) error {
			return db.Register(NewRelation("S", []string{"a", "b"}, []Tuple{strs(db, 0)}))
		}},
		{"materialize rows", func(db *DB) error {
			_, err := db.Materialize("P(A,B,C) :- E(A,B), E(B,C)", MaterializeOptions{Mode: MaterializeRows, Project: []string{"A", "C"}})
			return err
		}},
		{"apply strings", func(db *DB) error { _, err := db.Apply(NewBatch().Insert("S", strs(db, 1))); return err }},
		{"compact", func(db *DB) error { return db.Compact() }},
		{"apply", func(db *DB) error { _, err := db.Apply(edge(2)); return err }},
		{"apply strings", func(db *DB) error { _, err := db.Apply(NewBatch().Insert("S", strs(db, 2))); return err }},
		{"close view", func(db *DB) error {
			if vs := db.MaterializedViews(); len(vs) > 0 {
				return vs[0].Close()
			}
			return nil
		}},
		{"apply", func(db *DB) error { _, err := db.Apply(edge(3)); return err }},
	}
}

// visible is what a reader can see of a DB: its epoch, every
// relation's tuple set, and every maintained view's value.
func visible(db *DB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d\n", db.Stats().Epoch)
	for _, name := range db.Names() {
		r, _ := db.Relation(name)
		fmt.Fprintf(&b, "%s %v\n", name, r.Tuples())
	}
	for _, mq := range db.MaterializedViews() {
		res := mq.Result()
		fmt.Fprintf(&b, "view %s %q mode %d epoch %d count %d", mq.ID(), mq.Source(), mq.Mode(), res.Epoch, res.Count)
		if res.Rows != nil {
			fmt.Fprintf(&b, " rows %v", res.Rows.Tuples())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestWriteFaults fails each file-system operation of faultScript in
// turn, below the WAL, and checks the durability contract at every
// one:
//   - a write whose unit failed is not acknowledged, and readers keep
//     what they saw: its epoch, relations and views (durability before
//     visibility — a write published before its sync would show here);
//   - closing and reopening the directory yields exactly the state the
//     acknowledged writes built, every registered view included, and
//     every dictionary string a tuple refers to.
func TestWriteFaults(t *testing.T) {
	script := faultScript()
	clean := &walfault.FS{}
	db, err := openDir(t.TempDir(), clean)
	if err != nil {
		t.Fatal(err)
	}
	start := len(clean.Trace())
	for _, st := range script {
		if err := st.run(db); err != nil {
			t.Fatalf("fault-free %s: %v", st.name, err)
		}
	}
	ops := clean.Trace()[start:]
	db.Close()

	for i, op := range ops {
		t.Run(fmt.Sprintf("%d %s", i, op), func(t *testing.T) {
			dir := t.TempDir()
			fs := &walfault.FS{}
			db, err := openDir(dir, fs)
			if err != nil {
				t.Fatal(err)
			}
			fs.Arm(walfault.Fault{Skip: i})
			failed := 0
			for _, st := range script {
				before := visible(db)
				err := st.run(db)
				if err == nil {
					continue
				}
				failed++
				if after := visible(db); after != before {
					t.Fatalf("%s failed (%v) but readers see its effect:\nbefore:\n%safter:\n%s", st.name, err, before, after)
				}
			}
			if fs.Fired() != 1 {
				t.Fatalf("fault fired %d times", fs.Fired())
			}
			want := visible(db)
			d := db.Dict()
			db.Close()

			re, err := OpenDir(dir)
			if err != nil {
				t.Fatalf("reopen after %d failed writes: %v", failed, err)
			}
			defer re.Close()
			if got := visible(re); got != want {
				t.Fatalf("reopen after %d failed writes:\n%s\nwant the acknowledged state:\n%s", failed, got, want)
			}
			if s, ok := re.Relation("S"); ok {
				rd := re.Dict()
				for _, tu := range s.Tuples() {
					for _, v := range tu {
						if int(v) >= rd.Len() || rd.String(v) != d.String(v) {
							t.Fatalf("string %d (%q) of S did not survive reopen", v, d.String(v))
						}
					}
				}
			}
		})
	}
}
