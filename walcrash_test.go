package wcoj

// Crash-recovery property test. The test binary re-execs itself as a
// child (TestMain diverts on WCOJ_CRASH_CHILD) that opens the durable
// directory through a fault file (internal/wal/walfault) armed to kill
// the process once a random number of further bytes has been written,
// and applies a deterministic stream of batches until the simulated
// kill -9 fires mid-write: in a log append, or in the new log or the
// snapshot of a compaction's rotation. The parent then
// recovers the directory and checks the two properties durability
// promises:
//
//  1. No acknowledged batch is lost: the recovered epoch is at least
//     the highest epoch the child acked before dying.
//  2. No batch is lost, duplicated or torn in the middle: the
//     recovered state is byte-identical to an uninterrupted shadow run
//     of exactly the first E batches of the same stream, where E is
//     the recovered epoch.
//
// Crashes stack: each iteration re-opens the same directory, so the
// stream survives dozens of kills at arbitrary offsets — including
// mid-frame, mid-header and just after a compaction rotated the log.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"wcoj/internal/dataset"
	"wcoj/internal/wal/walfault"
)

const (
	crashChildEnv = "WCOJ_CRASH_CHILD"
	crashDirEnv   = "WCOJ_CRASH_DIR"
	crashSeedEnv  = "WCOJ_CRASH_SEED"
	crashExtraEnv = "WCOJ_CRASH_EXTRA"
	crashMaxEnv   = "WCOJ_CRASH_MAX"

	// crashFresh offsets the per-batch guaranteed-fresh tuple well away
	// from the random-op value domain.
	crashFresh  = 1 << 20
	crashDomain = 50
)

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) != "" {
		crashChild()
		return // unreachable: crashChild always exits
	}
	os.Exit(m.Run())
}

// crashGraph is the initial relation both the children and the shadow
// run start from.
func crashGraph() *Relation {
	return dataset.RandomGraph(25, 120, 11)
}

// crashBatch is the deterministic update stream: batch i is a pure
// function of (seed, i), so the parent can rebuild any prefix without
// replaying the child's rng state. The first insert is always fresh,
// making every batch effective — the update epoch counts applied
// batches exactly.
func crashBatch(seed int64, i int) *Batch {
	rng := rand.New(rand.NewSource(seed + int64(i)*1000003))
	b := NewBatch().Insert("E", Tuple{crashFresh + Value(i), Value(i)})
	for k, n := 0, rng.Intn(4); k < n; k++ {
		b.Insert("E", Tuple{Value(rng.Intn(crashDomain)), Value(rng.Intn(crashDomain))})
	}
	for k, n := 0, rng.Intn(3); k < n; k++ {
		b.Delete("E", Tuple{Value(rng.Intn(crashDomain)), Value(rng.Intn(crashDomain))})
	}
	return b
}

// crashChild runs in the re-exec'd process: recover, arm the crash
// budget, apply batches from where the stream left off, and print an
// ack per applied batch so the parent knows what durability promised.
func crashChild() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	seed, _ := strconv.ParseInt(os.Getenv(crashSeedEnv), 10, 64)
	extra, _ := strconv.ParseInt(os.Getenv(crashExtraEnv), 10, 64)
	max, _ := strconv.Atoi(os.Getenv(crashMaxEnv))
	fs := &walfault.FS{}
	db, err := openDir(os.Getenv(crashDirEnv), fs)
	if err != nil {
		fail(err)
	}
	fs.Crash(extra, func() { os.Exit(137) })
	start := int(db.Stats().Epoch)
	for i := start; i < start+max; i++ {
		us, err := db.Apply(crashBatch(seed, i))
		if err != nil {
			fail(err)
		}
		fmt.Printf("acked %d\n", us.Epoch)
		// Rotate the log every few dozen batches so some kills land
		// right after a fresh generation started.
		if (i+1)%37 == 0 {
			if err := db.Compact(); err != nil {
				fail(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		fail(err)
	}
	fmt.Println("done")
	os.Exit(0)
}

// crashShadow rebuilds the uninterrupted reference state: the initial
// graph plus exactly the first `epoch` batches of the stream.
func crashShadow(t *testing.T, seed int64, epoch uint64) *DB {
	t.Helper()
	shadow := NewDB()
	if err := shadow.Register(crashGraph()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(epoch); i++ {
		us, err := shadow.Apply(crashBatch(seed, i))
		if err != nil {
			t.Fatalf("shadow batch %d: %v", i, err)
		}
		if us.Epoch != uint64(i+1) {
			t.Fatalf("shadow batch %d landed at epoch %d: stream batch was not effective", i, us.Epoch)
		}
	}
	return shadow
}

func TestCrashRecovery(t *testing.T) {
	const seed = 20260808
	dir := t.TempDir()
	setup, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Register(crashGraph()); err != nil {
		t.Fatal(err)
	}
	if err := setup.Close(); err != nil {
		t.Fatal(err)
	}

	iters := 12
	if testing.Short() {
		iters = 4
	}
	rng := rand.New(rand.NewSource(seed))
	var maxAcked uint64
	for iter := 0; iter < iters; iter++ {
		extra := 1 + rng.Int63n(2500)
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			crashChildEnv+"=1",
			crashDirEnv+"="+dir,
			fmt.Sprintf("%s=%d", crashSeedEnv, seed),
			fmt.Sprintf("%s=%d", crashExtraEnv, extra),
			crashMaxEnv+"=400",
		)
		out, err := cmd.CombinedOutput()
		if err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 137 {
				t.Fatalf("iter %d (extra=%d): child failed: %v\n%s", iter, extra, err, out)
			}
		}
		for _, line := range strings.Split(string(out), "\n") {
			var e uint64
			if _, err := fmt.Sscanf(line, "acked %d", &e); err == nil && e > maxAcked {
				maxAcked = e
			}
		}

		db, err := OpenDir(dir)
		if err != nil {
			t.Fatalf("iter %d (extra=%d): recovery failed: %v\n%s", iter, extra, err, out)
		}
		epoch := db.Stats().Epoch
		if epoch < maxAcked {
			t.Fatalf("iter %d (extra=%d): lost an acknowledged batch: recovered epoch %d < acked %d",
				iter, extra, epoch, maxAcked)
		}
		sameState(t, db, crashShadow(t, seed, epoch))
		if t.Failed() {
			t.Fatalf("iter %d (extra=%d): recovered state diverged from the uninterrupted run at epoch %d",
				iter, extra, epoch)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The survivor must still be a working database: reopen, continue
	// the stream, and answer a join.
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	epoch := db.Stats().Epoch
	if maxAcked == 0 || epoch == 0 {
		t.Fatalf("vacuous run: children acked up to %d, recovered epoch %d", maxAcked, epoch)
	}
	us, err := db.Apply(crashBatch(seed, int(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	if us.Epoch != epoch+1 {
		t.Fatalf("post-recovery apply landed at epoch %d, want %d", us.Epoch, epoch+1)
	}
	if _, _, err := db.Query(context.Background(), "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)", Options{}); err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
}
