package main

import (
	"fmt"
	"strconv"
	"strings"

	ltree "github.com/ltree-db/ltree"
)

// oracle answers, from an in-process ltree.Store over the same seed
// document, what every query against the untouched document must
// return. Writes only ever add the fixed fragment, so the expected
// result after n acknowledged inserts follows from these plus n.
type oracle struct {
	itemName []string // text of //item[@id='itemK']/name, by K
	bidders  []int    // seed count of //open_auction[@id='auctionK']/bidder, by K
	scan     int      // seed count of //open_auction//increase
	rooted   int      // count of /site/regions/asia/item/name
}

func newOracle(seedXML string, c corpus) (*oracle, error) {
	st, err := ltree.OpenString(seedXML, ltree.DefaultParams)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{itemName: make([]string, c.items), bidders: make([]int, c.auctions)}

	index := func(e *ltree.Elem, prefix string, n int) (int, error) {
		id, _ := e.Attr("id")
		k, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
		if err != nil || k < 0 || k >= n {
			return 0, fmt.Errorf("oracle: unexpected %s id %q", prefix, id)
		}
		return k, nil
	}
	names, err := st.Query("//item/name")
	if err != nil {
		return nil, err
	}
	if len(names) != c.items {
		return nil, fmt.Errorf("oracle: seed holds %d items, generator assumed %d", len(names), c.items)
	}
	for _, n := range names {
		k, err := index(n.Parent(), "item", c.items)
		if err != nil {
			return nil, err
		}
		for _, t := range n.Children() {
			o.itemName[k] += t.Data()
		}
	}
	seedBidders, err := st.Query("//open_auction/bidder")
	if err != nil {
		return nil, err
	}
	for _, b := range seedBidders {
		k, err := index(b.Parent(), "auction", c.auctions)
		if err != nil {
			return nil, err
		}
		o.bidders[k]++
	}
	for q, dst := range map[string]*int{scanQuery: &o.scan, rootedQuery: &o.rooted} {
		res, err := st.Query(q)
		if err != nil {
			return nil, err
		}
		*dst = len(res)
	}
	if o.scan == 0 || o.rooted == 0 {
		return nil, fmt.Errorf("oracle: scan (%d) or rooted (%d) query is empty on the seed", o.scan, o.rooted)
	}
	return o, nil
}
