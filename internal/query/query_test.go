package query

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/workload"
	"github.com/ltree-db/ltree/internal/xmldom"
)

var p42 = core.Params{F: 4, S: 2}

func load(t *testing.T, src string) *document.Doc {
	t.Helper()
	d, err := document.Parse(strings.NewReader(src), p42)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParsePath(t *testing.T) {
	cases := []struct {
		in  string
		out string
		err bool
	}{
		{"/a/b//c", "/a/b//c", false},
		{"book//title", "//book//title", false},
		{"//item/name", "//item/name", false},
		{"//*", "//*", false},
		{"/a", "/a", false},
		{"", "", true},
		{"/", "", true},
		{"//", "", true},
		{"/a//", "", true},
		{"a/", "", true},
		{"a[1]", "", true},
		{"a b", "", true},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if c.err {
			if err == nil {
				t.Errorf("Parse(%q) should fail", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if p.String() != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, p.String(), c.out)
		}
	}
}

// TestFigure1Query reproduces the paper's motivating query "book//title".
func TestFigure1Query(t *testing.T) {
	d := load(t, `<book><chapter><title/></chapter><title/></book>`)
	idx := d.BuildTagIndex()
	p, err := Parse("book//title")
	if err != nil {
		t.Fatal(err)
	}
	nav := Nav(d, p)
	join := Join(d, idx, p)
	if len(nav) != 2 || len(join) != 2 {
		t.Fatalf("book//title: nav %d, join %d, want 2", len(nav), len(join))
	}
	for i := range nav {
		if nav[i] != join[i] {
			t.Fatal("nav and join disagree")
		}
	}
	// Child axis distinguishes the direct title.
	p2, _ := Parse("/book/title")
	if res := Join(d, idx, p2); len(res) != 1 {
		t.Fatalf("/book/title: %d results, want 1", len(res))
	}
	// Rooted path with wrong root tag matches nothing.
	p3, _ := Parse("/chapter/title")
	if res := Join(d, idx, p3); len(res) != 0 {
		t.Fatalf("/chapter/title: %d results, want 0", len(res))
	}
}

func TestWildcardAndNested(t *testing.T) {
	d := load(t, `<r><a><b><c/></b></a><b/><a><c/></a></r>`)
	idx := d.BuildTagIndex()
	for _, c := range []struct {
		path string
		want int
	}{
		{"//a//c", 2},
		{"//a/c", 1},
		{"//b/c", 1},
		{"//*", 7},
		{"/r/*", 3},
		{"//a//*", 3},
		{"/r//c", 2},
		{"//r", 1},
		{"//missing", 0},
	} {
		p, err := Parse(c.path)
		if err != nil {
			t.Fatal(err)
		}
		nav := Nav(d, p)
		join := Join(d, idx, p)
		if len(nav) != c.want {
			t.Errorf("%s: nav %d, want %d", c.path, len(nav), c.want)
		}
		if len(join) != len(nav) {
			t.Errorf("%s: join %d, nav %d", c.path, len(join), len(nav))
			continue
		}
		for i := range nav {
			if nav[i] != join[i] {
				t.Errorf("%s: result %d differs", c.path, i)
			}
		}
	}
}

// TestNavJoinEquivalenceRandom is the differential test: on random and
// xmark-lite documents, every random path yields identical results from
// the navigation and the structural-join evaluators.
func TestNavJoinEquivalenceRandom(t *testing.T) {
	docs := []*xmldom.Document{
		workload.GenerateDoc(workload.DocConfig{Elements: 400, MaxDepth: 9, MaxFanout: 6, TextProb: 0.3}, 3),
		workload.GenerateDoc(workload.DocConfig{Elements: 700, MaxDepth: 4, MaxFanout: 20, TextProb: 0.1}, 4),
		workload.XMarkLite(3, 5),
	}
	tags := append([]string{"*"}, workload.DefaultTags...)
	tags = append(tags, "item", "name", "person", "bidder", "open_auction", "para")
	rng := rand.New(rand.NewSource(99))
	for di, x := range docs {
		d, err := document.Load(x, p42)
		if err != nil {
			t.Fatal(err)
		}
		idx := d.BuildTagIndex()
		for trial := 0; trial < 120; trial++ {
			steps := rng.Intn(3) + 1
			var sb strings.Builder
			if rng.Intn(2) == 0 {
				sb.WriteString("/")
				if rng.Intn(2) == 0 {
					sb.WriteString("/")
				}
			}
			for i := 0; i < steps; i++ {
				if i > 0 {
					if rng.Intn(2) == 0 {
						sb.WriteString("/")
					} else {
						sb.WriteString("//")
					}
				}
				sb.WriteString(tags[rng.Intn(len(tags))])
			}
			expr := sb.String()
			p, err := Parse(expr)
			if err != nil {
				continue // malformed by construction (e.g. leading "//"+"/")
			}
			nav := Nav(d, p)
			join := Join(d, idx, p)
			if len(nav) != len(join) {
				t.Fatalf("doc %d %q: nav %d join %d", di, expr, len(nav), len(join))
			}
			for i := range nav {
				if nav[i] != join[i] {
					t.Fatalf("doc %d %q: result %d differs", di, expr, i)
				}
			}
		}
	}
}

func TestDescendantsRangeScan(t *testing.T) {
	x := workload.XMarkLite(2, 9)
	d, err := document.Load(x, p42)
	if err != nil {
		t.Fatal(err)
	}
	idx := d.BuildTagIndex()
	if len(document.DrainCursor(idx.Cursor("*"))) == 0 {
		t.Fatal("the \"*\" stream drained nothing")
	}
	for _, anchor := range d.Elements("item") {
		got := Descendants(d, idx, anchor)
		want := 0
		anchor.Walk(func(n *xmldom.Node) bool {
			if n != anchor && n.Kind() == xmldom.Element {
				want++
			}
			return true
		})
		if len(got) != want {
			t.Fatalf("item descendants = %d, want %d", len(got), want)
		}
		for _, g := range got {
			ok, _ := d.IsAncestor(anchor, g)
			if !ok {
				t.Fatal("range scan returned a non-descendant")
			}
		}
	}
}

// TestQueriesSurviveUpdates runs queries, applies updates (forcing
// relabels), rebuilds the index and re-verifies equivalence.
func TestQueriesSurviveUpdates(t *testing.T) {
	d := load(t, `<lib><book><title/></book><book><title/></book></lib>`)
	p, _ := Parse("book//title")
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 30; round++ {
		books := d.Elements("book")
		b := books[rng.Intn(len(books))]
		if _, err := d.InsertElement(b, rng.Intn(b.NumChildren()+1), "title"); err != nil {
			t.Fatal(err)
		}
		idx := d.BuildTagIndex()
		nav := Nav(d, p)
		join := Join(d, idx, p)
		if len(nav) != len(join) {
			t.Fatalf("round %d: nav %d join %d", round, len(nav), len(join))
		}
		for i := range nav {
			if nav[i] != join[i] {
				t.Fatalf("round %d: result %d differs", round, i)
			}
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}
