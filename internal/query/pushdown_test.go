package query

import (
	"fmt"
	"testing"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/workload"
)

// TestPushdownDecodeGate bounds the chunks a point lookup decodes on the
// production index: an equality predicate on a unique id must reject, by
// the chunk key sets alone, every chunk but the one holding the match,
// and the "*" merge must forward the filter to every tag. The counts are
// per query, over 20 ids spread across the tag, at two document scales
// (1200 and 4800 items in 5 and 19 chunks).
func TestPushdownDecodeGate(t *testing.T) {
	const keys = 20
	for _, scale := range []int{100, 400} {
		d, err := document.Load(workload.XMarkLite(scale, 1), p42)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(d)
		var st index.CursorStats
		ix.SetCursorStats(&st)
		for _, c := range []struct {
			expr string // one %d: the id's number
			tag  string // the one result's tag
			ids  int    // ids run from 0 to ids-1
			max  uint64 // decoded chunks allowed per query
		}{
			{"//item[@id='item%d']/name", "name", 12 * scale, 2},
			{"//open_auction[@id='auction%d']", "open_auction", 3 * scale, 1},
			{"//*[@id='item%d']", "item", 12 * scale, 1},
		} {
			for k := 0; k < keys; k++ {
				id := (2*k + 1) * c.ids / (2 * keys)
				expr := fmt.Sprintf(c.expr, id)
				p, err := Parse(expr)
				if err != nil {
					t.Fatal(err)
				}
				st.Reset()
				res := document.DrainCursor(JoinCursor(ix, p))
				if len(res) != 1 || res[0].Node.Tag() != c.tag {
					t.Fatalf("scale %d: %s returned %d results, want one <%s>", scale, expr, len(res), c.tag)
				}
				if got := st.Decoded.Load(); got > c.max {
					t.Errorf("scale %d: %s decoded %d chunks, want <= %d (%d skipped by key set)",
						scale, expr, got, c.max, st.SkippedFilter.Load())
				}
			}
		}
	}
}
