package document

import (
	"fmt"
	"io"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// This file bridges the labeled document to the persistence layer: it
// projects a Doc onto storage.Image (the codec-neutral snapshot: exact
// L-Tree state plus the DOM, nothing more — the tree structure is
// implicit in the labels, paper §4.2) and rebuilds a Doc from one. The
// wire formats themselves live in internal/storage.

func toRec(n *xmldom.Node) storage.NodeRec {
	rec := storage.NodeRec{
		Kind: int(n.Kind()),
		Tag:  n.Tag(),
		Data: n.Data(),
	}
	for _, a := range n.Attrs() {
		rec.Attrs = append(rec.Attrs, storage.AttrRec{Name: a.Name, Value: a.Value})
	}
	for _, c := range n.Children() {
		rec.Children = append(rec.Children, toRec(c))
	}
	return rec
}

func fromRec(rec *storage.NodeRec) (*xmldom.Node, error) {
	var n *xmldom.Node
	switch xmldom.Kind(rec.Kind) {
	case xmldom.Element:
		attrs := make([]xmldom.Attr, len(rec.Attrs))
		for i, a := range rec.Attrs {
			attrs[i] = xmldom.Attr{Name: a.Name, Value: a.Value}
		}
		n = xmldom.NewElement(rec.Tag, attrs...)
	case xmldom.Text:
		n = xmldom.NewText(rec.Data)
	default:
		return nil, fmt.Errorf("document: restore: unknown node kind %d", rec.Kind)
	}
	for i := range rec.Children {
		c, err := fromRec(&rec.Children[i])
		if err != nil {
			return nil, err
		}
		if err := n.AppendChild(c); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Image projects the document onto the codec-neutral snapshot image.
func (d *Doc) Image() *storage.Image {
	labels, deleted, height := d.tree.SnapshotState()
	p := d.tree.Params()
	return &storage.Image{
		F:       p.F,
		S:       p.S,
		Wide:    p.WideRadix,
		Height:  height,
		Labels:  labels,
		Deleted: deleted,
		Root:    toRec(d.X.Root),
	}
}

// FromImage rebuilds a labeled document from a snapshot image. Labels,
// tombstone slots and the tree height come back exactly as saved.
func FromImage(img *storage.Image) (*Doc, error) {
	root, err := fromRec(&img.Root)
	if err != nil {
		return nil, err
	}
	x, err := xmldom.NewDocument(root)
	if err != nil {
		return nil, fmt.Errorf("document: restore: %w", err)
	}
	p := core.Params{F: img.F, S: img.S, WideRadix: img.Wide}
	tree, leaves, err := core.FromLabels(p, img.Labels, img.Deleted, img.Height)
	if err != nil {
		return nil, fmt.Errorf("document: restore: %w", err)
	}
	// Bind the document's tokens to the live (non-tombstoned) leaves in
	// order; tombstoned slots have no XML token by construction.
	tokens := x.Tokens()
	live := make([]*core.Node, 0, len(tokens))
	for _, lf := range leaves {
		if !lf.Deleted() {
			live = append(live, lf)
		}
	}
	if len(live) != len(tokens) {
		return nil, fmt.Errorf("document: restore: %d live labels for %d tokens", len(live), len(tokens))
	}
	d := &Doc{X: x, tree: tree, bind: make(map[*xmldom.Node]binding, len(tokens)/2+1)}
	d.restoredRoot, d.hasRestoredRoot = img.IndexRoot, img.HasIndexRoot
	d.bindTokens(tokens, live)
	if err := d.Check(); err != nil {
		return nil, fmt.Errorf("document: restore: %w", err)
	}
	return d, nil
}

// Snapshot serializes the labeled document (format v2) so Restore can
// bring it back with bit-identical labels — no relabeling on restart.
func (d *Doc) Snapshot(w io.Writer) error {
	return storage.WriteSnapshot(w, d.Image())
}

// SnapshotStamped is Snapshot with an index root hash embedded in the
// image header (storage.SnapshotRootHash peeks it back without a
// decode). The hash is an annotation about the index the document
// implies; the caller owns its accuracy.
func (d *Doc) SnapshotStamped(w io.Writer, root [32]byte) error {
	img := d.Image()
	img.IndexRoot, img.HasIndexRoot = root, true
	return storage.WriteSnapshot(w, img)
}

// RestoredIndexRoot returns the index root hash the restore snapshot
// carried, if any — the hook restore-time integrity verification
// compares a freshly built index against.
func (d *Doc) RestoredIndexRoot() ([32]byte, bool) {
	return d.restoredRoot, d.hasRestoredRoot
}

// Restore reconstructs a labeled document from a Snapshot stream.
func Restore(r io.Reader) (*Doc, error) {
	img, err := storage.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("document: restore: %w", err)
	}
	return FromImage(img)
}
