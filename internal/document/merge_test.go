package document

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// randomBranches builds k begin-sorted entry slices with begins drawn
// from a shared space, so branches interleave, tie, and leave gaps.
func randomBranches(rng *rand.Rand, k, maxLen int) [][]Entry {
	out := make([][]Entry, k)
	for i := range out {
		n := rng.Intn(maxLen + 1)
		begins := make([]uint64, n)
		for j := range begins {
			begins[j] = uint64(rng.Intn(4 * maxLen))
		}
		sort.Slice(begins, func(a, b int) bool { return begins[a] < begins[b] })
		es := make([]Entry, n)
		for j, b := range begins {
			es[j] = Entry{Label: Label{Begin: b, End: b + 1 + uint64(rng.Intn(16))}}
		}
		out[i] = es
	}
	return out
}

// mergeOracle is the reference: concatenate, stable-sort by (begin,
// branch) — exactly the order Merge promises.
func mergeOracle(branches [][]Entry) []Entry {
	type tagged struct {
		e      Entry
		branch int
	}
	var all []tagged
	for i, es := range branches {
		for _, e := range es {
			all = append(all, tagged{e, i})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].e.Label.Begin != all[b].e.Label.Begin {
			return all[a].e.Label.Begin < all[b].e.Label.Begin
		}
		return all[a].branch < all[b].branch
	})
	out := make([]Entry, len(all))
	for i, t := range all {
		out[i] = t.e
	}
	return out
}

func cursorsOf(branches [][]Entry) []Cursor {
	curs := make([]Cursor, len(branches))
	for i, es := range branches {
		curs[i] = NewSliceCursor(es)
	}
	return curs
}

func TestMergeDrainMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(12) // spans both the linear-scan and heap variants
		branches := randomBranches(rng, k, 40)
		got := DrainCursor(Merge(cursorsOf(branches)...))
		want := mergeOracle(branches)
		if len(got) != len(want) {
			t.Fatalf("trial %d: drained %d entries, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Label != want[i].Label {
				t.Fatalf("trial %d: entry %d = %+v, want %+v", trial, i, got[i].Label, want[i].Label)
			}
		}
	}
}

// TestMergeSeekInterleavings drives random Next/Seek sequences against
// the forward-only contract's oracle: Seek(b) yields the first remaining
// entry with Begin >= b, and a target at or behind the current position
// degrades to a plain Next. Seek targets are drawn both ahead of and
// behind the current position.
func TestMergeSeekInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(12) // spans both the linear-scan and heap variants
		branches := randomBranches(rng, k, 40)
		want := mergeOracle(branches)
		cur := Merge(cursorsOf(branches)...)
		pos := 0
		for step := 0; step < 60; step++ {
			if rng.Intn(2) == 0 {
				e, ok := cur.Next()
				if pos >= len(want) {
					if ok {
						t.Fatalf("trial %d step %d: Next yielded %+v past exhaustion", trial, step, e.Label)
					}
					break
				}
				if !ok || e.Label != want[pos].Label {
					t.Fatalf("trial %d step %d: Next = %+v/%v, want %+v", trial, step, e.Label, ok, want[pos].Label)
				}
				pos++
				continue
			}
			target := uint64(rng.Intn(200))
			// Oracle: skip remaining entries behind the target; a target
			// at or behind the current position skips nothing (Next).
			for pos < len(want) && want[pos].Label.Begin < target {
				pos++
			}
			e, ok := cur.Seek(target)
			if pos >= len(want) {
				if ok {
					t.Fatalf("trial %d step %d: Seek(%d) yielded %+v past exhaustion", trial, step, target, e.Label)
				}
				break
			}
			if !ok || e.Label != want[pos].Label {
				t.Fatalf("trial %d step %d: Seek(%d) = %+v/%v, want %+v", trial, step, target, e.Label, ok, want[pos].Label)
			}
			pos++
		}
	}
}

func TestMergeDegenerate(t *testing.T) {
	// No branches, and branches that are all empty: exhausted, not a panic.
	if _, ok := Merge().Next(); ok {
		t.Fatal("empty merge yielded an entry")
	}
	empty := Merge(NewSliceCursor(nil), NewSliceCursor(nil))
	if _, ok := empty.Next(); ok {
		t.Fatal("merge of empty branches yielded an entry")
	}
	if _, ok := empty.Seek(0); ok {
		t.Fatal("Seek on exhausted merge yielded an entry")
	}
	// One branch: passthrough, byte-for-byte.
	es := []Entry{
		{Label: Label{Begin: 1, End: 10}},
		{Label: Label{Begin: 3, End: 4}},
	}
	one := Merge(NewSliceCursor(es))
	got := DrainCursor(one)
	if len(got) != 2 || got[0].Label != es[0].Label || got[1].Label != es[1].Label {
		t.Fatalf("single-branch merge = %+v", got)
	}
	// Nil branches are dropped, not dereferenced.
	mixed := Merge(nil, NewSliceCursor(es), nil)
	if got := DrainCursor(mixed); len(got) != 2 {
		t.Fatalf("nil-branch merge drained %d entries, want 2", len(got))
	}
}

// TestMergeSeekBeforeFirstPull pins the lazy-start path: a Seek issued
// before any Next must prime every branch through its own Seek.
func TestMergeSeekBeforeFirstPull(t *testing.T) {
	branches := [][]Entry{
		{{Label: Label{Begin: 1, End: 2}}, {Label: Label{Begin: 50, End: 51}}},
		{{Label: Label{Begin: 2, End: 3}}, {Label: Label{Begin: 40, End: 41}}},
	}
	cur := Merge(cursorsOf(branches)...)
	e, ok := cur.Seek(10)
	if !ok || e.Label.Begin != 40 {
		t.Fatalf("Seek(10) = %+v/%v, want begin 40", e.Label, ok)
	}
	e, ok = cur.Next()
	if !ok || e.Label.Begin != 50 {
		t.Fatalf("Next = %+v/%v, want begin 50", e.Label, ok)
	}
}

// TestMergeTieBreakDeterministic pins the branch-order tie-break.
func TestMergeTieBreakDeterministic(t *testing.T) {
	a := []Entry{{Label: Label{Begin: 5, End: 6}}}
	b := []Entry{{Label: Label{Begin: 5, End: 9}}}
	for trial := 0; trial < 3; trial++ {
		cur := Merge(NewSliceCursor(a), NewSliceCursor(b))
		first, _ := cur.Next()
		second, _ := cur.Next()
		if first.Label.End != 6 || second.Label.End != 9 {
			t.Fatalf("tie-break order: got ends %d,%d, want 6,9", first.Label.End, second.Label.End)
		}
	}
}

func BenchmarkMergeDrain(b *testing.B) {
	for _, k := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("branches-%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			branches := randomBranches(rng, k, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := Merge(cursorsOf(branches)...)
				for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				}
			}
		})
	}
}
