// Command gen regenerates the golden back-compat snapshot in
// internal/storage/testdata: a v2 binary snapshot of a deterministic
// document (edits included, so tombstones and non-trivial labels are
// exercised). Run from the repo root:
//
//	go run ./internal/storage/testdata/gen
//
// The golden exists so future codec edits cannot silently break loading
// of old files — regenerate it ONLY when intentionally revving the
// format, and keep the old file loadable. golden-v1.gob beside it is a
// frozen must-fail fixture of the retired gob format; nothing writes it
// any more.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	ltree "github.com/ltree-db/ltree"
)

func main() {
	st, err := ltree.OpenString(
		`<site><regions><asia><item id="1"><name>lamp</name></item></asia><europe/></regions><people><person>alice</person><person>bob</person></people></site>`,
		ltree.DefaultParams)
	if err != nil {
		log.Fatal(err)
	}
	// Deterministic edit history: an insert, a subtree paste, a delete
	// (leaves tombstones in the label space), and a move.
	if _, err := st.InsertElement(st.Root(), 0, "header"); err != nil {
		log.Fatal(err)
	}
	asia := st.Elements("asia")[0]
	if _, err := st.InsertXML(asia, 1, `<item id="2"><name>chair</name></item>`); err != nil {
		log.Fatal(err)
	}
	if err := st.Delete(st.Elements("europe")[0]); err != nil {
		log.Fatal(err)
	}
	items := st.Elements("item")
	if err := st.Move(items[0], st.Elements("people")[0], 0); err != nil {
		log.Fatal(err)
	}

	dir := filepath.Join("internal", "storage", "testdata")
	var v2 bytes.Buffer
	if err := st.Snapshot(&v2); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden-v2.ltsnap"), v2.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote golden-v2.ltsnap (%d bytes)\n", v2.Len())
	fmt.Printf("document: %s\n", st.String())
}
