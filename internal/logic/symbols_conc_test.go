package logic

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// The symbol table must hand out one stable id per distinct symbol under
// concurrent interning, and every published id must resolve back through
// the lock-free read paths. Run with -race to exercise the memory-model
// claims of the Symbols doc comment.
func TestSymbolsConcurrentIntern(t *testing.T) {
	const goroutines = 8
	const perKind = 300

	type obs struct {
		termIDs map[string]int32 // term key -> id observed by this goroutine
		predIDs map[string]int32 // pred string -> id
	}
	results := make([]obs, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := obs{termIDs: make(map[string]int32), predIDs: make(map[string]int32)}
			// Every goroutine interns the same shared symbols (contended
			// first-intern races) plus a private tail (writer throughput),
			// interleaved with lock-free reads.
			for i := 0; i < perKind; i++ {
				shared := []Term{
					Constant(fmt.Sprintf("c%d", i)),
					Variable(fmt.Sprintf("V%d", i)),
					Fresh(i),
				}
				private := Constant(fmt.Sprintf("c-g%d-%d", g, i))
				for _, trm := range append(shared, private) {
					id := IDOf(trm)
					o.termIDs[trm.Key()] = id
					// Round-trip through the dense view; nulls aside, every
					// interned term must resolve.
					if back := TermOfID(id); back == nil || back.Key() != trm.Key() {
						t.Errorf("TermOfID(%d) = %v, want %v", id, back, trm)
						return
					}
				}
				p := Predicate{Name: fmt.Sprintf("p%d", i%17), Arity: 1 + i%3}
				pid := PredIDOf(p)
				o.predIDs[p.String()] = pid
				if back := PredOfID(pid); back != p {
					t.Errorf("PredOfID(%d) = %v, want %v", pid, back, p)
					return
				}
			}
			results[g] = o
		}(g)
	}
	wg.Wait()

	// All goroutines must agree on every id they observed.
	for g := 1; g < goroutines; g++ {
		for key, id := range results[g].termIDs {
			if prev, ok := results[0].termIDs[key]; ok && prev != id {
				t.Fatalf("term %q interned as %d and %d", key, prev, id)
			}
		}
		for p, id := range results[g].predIDs {
			if prev, ok := results[0].predIDs[p]; ok && prev != id {
				t.Fatalf("predicate %s interned as %d and %d", p, prev, id)
			}
		}
	}
}

// Concurrent atom construction drives internAtom (predicate + argument
// interning) from many goroutines; ids must make structurally equal atoms
// compare equal regardless of which goroutine interned their symbols first.
func TestAtomsConcurrentConstruction(t *testing.T) {
	const goroutines = 8
	atoms := make([][]*Atom, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := MakeAtom("edge",
					Constant(fmt.Sprintf("n%d", i%23)),
					Constant(fmt.Sprintf("n%d", (i+1)%23)))
				atoms[g] = append(atoms[g], a)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i, a := range atoms[g] {
			if !a.Equal(atoms[0][i]) {
				t.Fatalf("goroutine %d atom %d (%v) != goroutine 0's (%v)", g, i, a, atoms[0][i])
			}
		}
	}
}

// Freezing moves recent constants into the flat table while readers may
// still hold the previous state. Readers resolving earlier constants in
// both directions must see the same ids throughout, and every constant
// interned across the freezes must keep its id afterwards.
func TestConstantsSurviveFreezes(t *testing.T) {
	known := []Constant{"", "a\x00b", "é", "freeze-known"}
	knownIDs := make([]int32, len(known))
	for i, c := range known {
		knownIDs[i] = IDOf(c)
	}
	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		added []Constant
		ids   []int32
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, c := range known {
					if id := IDOf(c); id != knownIDs[i] {
						t.Errorf("IDOf(%q) = %d during freezes, want %d", c, id, knownIDs[i])
						return
					}
					if back := TermOfID(knownIDs[i]); back != c {
						t.Errorf("TermOfID(%d) = %v during freezes, want %q", knownIDs[i], back, c)
						return
					}
				}
			}
		}()
	}
	for freezes := 0; freezes < 3; {
		f := symtab.frozen.Load()
		c := Constant(fmt.Sprintf("freeze-%d", len(added)))
		added, ids = append(added, c), append(ids, IDOf(c))
		if symtab.frozen.Load() != f {
			freezes++
		}
	}
	close(stop)
	wg.Wait()
	for i, c := range added {
		if id, ok := lookupTermID(c); !ok || id != ids[i] {
			t.Fatalf("lookupTermID(%q) = %d, %v after freezes, want %d", c, id, ok, ids[i])
		}
		if back := TermOfID(ids[i]); back != c {
			t.Fatalf("TermOfID(%d) = %v after freezes, want %q", ids[i], back, c)
		}
	}
	if _, ok := lookupTermID(Constant("freeze-never-interned")); ok {
		t.Fatal("lookupTermID found a constant that was never interned")
	}
}

// Frozen constants hold no pointers, so interning many new constants must
// leave the collector a few objects to trace, not several per constant
// (a sync.Map entry is about six).
func TestFrozenConstantsAreNotTraced(t *testing.T) {
	const n = 20000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapObjects
	for i := range n {
		IDOf(Constant("untraced-" + strconv.Itoa(i)))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	grown := int64(ms.HeapObjects) - int64(before)
	t.Logf("%d new constants left %d more live heap objects", n, grown)
	if grown > n/2 {
		t.Errorf("%d new constants left %d more live heap objects, want at most %d", n, grown, n/2)
	}
}
