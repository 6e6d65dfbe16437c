package main

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mmvalue"
)

// oracle holds the golden answer of every (query class, binding), worked out
// from the plain-Go model alone. Set-valued answers are kept as sorted
// canonical JSON strings; the comparison never depends on the order the
// engine emits rows in, except where the query itself sorts (q3).
type oracle struct {
	m      *model
	golden [nQueryClasses][][]string
	// revenue is q3's per-product revenue; the check is tie-safe (see checkQ3).
	revenue map[string]int64
	top10   []int64 // the ten highest revenues, descending
	dist    [][]int // BFS distances from every start a binding names
	out     []map[int]bool
}

func canon(vals []mmvalue.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

func quoteAll(prefix string, set map[int]bool, suffix string) []string {
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, strconv.Quote(prefix+strconv.Itoa(p)+suffix))
	}
	sort.Strings(out)
	return out
}

// firstFriend is the friend OUT(...)[0] yields: neighbours come back in
// edge-key order, and load recorded the key the database gave each edge.
func (m *model) firstFriend(c int) (int, bool) {
	best := -1
	for j := range m.Knows[c] {
		if best < 0 || m.EdgeKeys[c][j] < m.EdgeKeys[c][best] {
			best = j
		}
	}
	if best < 0 {
		return 0, false
	}
	return m.Knows[c][best], true
}

func (m *model) cartProducts(c int, into map[int]bool) {
	for _, l := range m.Orders[m.Cart[c]].Lines {
		into[l.Product] = true
	}
}

func newOracle(m *model, ps *paramSets) *oracle {
	o := &oracle{m: m, revenue: map[string]int64{}, dist: make([][]int, nCustomers), out: make([]map[int]bool, nCustomers)}
	for c, fs := range m.Knows {
		o.out[c] = map[int]bool{}
		for _, f := range fs {
			o.out[c][f] = true
		}
	}
	for _, ord := range m.Orders {
		for _, l := range ord.Lines {
			o.revenue[prodKey(l.Product)] += l.Price
		}
	}
	for _, r := range o.revenue {
		o.top10 = append(o.top10, r)
	}
	sort.Slice(o.top10, func(i, j int) bool { return o.top10[i] > o.top10[j] })
	o.top10 = o.top10[:10]

	for i := 0; i < nParamSets; i++ {
		// q1: the first 20 customers in id order above the credit bar; the
		// products in the cart orders of all their friends.
		set, anchors := map[int]bool{}, 0
		for c := 0; c < nCustomers && anchors < 20; c++ {
			if m.Customers[c].Credit > int64(ps[clsQ1][i].a) {
				anchors++
				for _, f := range m.Knows[c] {
					m.cartProducts(f, set)
				}
			}
		}
		o.golden[clsQ1] = append(o.golden[clsQ1], quoteAll("p", set, ""))

		// q1sql: customers in the id window above the bar; the cart order of
		// each one's first friend.
		p := ps[clsQ1SQL][i]
		set = map[int]bool{}
		for c := p.b; c < p.b+q1sqlWindow; c++ {
			if m.Customers[c].Credit > int64(p.a) {
				if f, ok := m.firstFriend(c); ok {
					m.cartProducts(f, set)
				}
			}
		}
		o.golden[clsQ1SQL] = append(o.golden[clsQ1SQL], quoteAll("p", set, ""))

		set = map[int]bool{}
		for _, f := range m.Knows[ps[clsQ5][i].a] {
			for prod := range m.Rated[f] {
				set[prod] = true
			}
		}
		o.golden[clsQ5] = append(o.golden[clsQ5], quoteAll("<p", set, ">"))

		start := ps[clsTrav3][i].a
		set = map[int]bool{}
		for v, d := range o.bfs(start) {
			if d >= 1 && d <= 3 {
				set[v] = true
			}
		}
		o.golden[clsTrav3] = append(o.golden[clsTrav3], quoteAll("c", set, ""))

		var rows []string
		for c, cu := range m.Customers {
			if cu.Country != countries[ps[clsQ2][i].a] {
				continue
			}
			spend := int64(0)
			for _, oi := range m.ByCust[c] {
				spend += m.Orders[oi].Total
			}
			rows = append(rows, fmt.Sprintf(`{"customer":%d,"spend":%d}`, c, spend))
		}
		sort.Strings(rows)
		o.golden[clsQ2] = append(o.golden[clsQ2], rows)

		rows = nil
		for _, ord := range m.Orders {
			for _, l := range ord.Lines {
				if l.Product == ps[clsQ4][i].a {
					rows = append(rows, strconv.Quote(ord.Key))
					break
				}
			}
		}
		sort.Strings(rows)
		o.golden[clsQ4] = append(o.golden[clsQ4], rows)

		// Fill the distance cache now: check runs on several client
		// goroutines and must only read it.
		o.bfs(ps[clsSPath][i].a)

		lim := int64(ps[clsColAgg][i].a)
		o.golden[clsColAgg] = append(o.golden[clsColAgg], []string{fmt.Sprintf(`{"n":%d,"s":%d}`, lim, lim*(lim-1)/2)})
	}
	return o
}

// bfs returns the hop distance from start to every customer (-1 when
// unreachable) along outbound knows edges.
func (o *oracle) bfs(start int) []int {
	if o.dist[start] != nil {
		return o.dist[start]
	}
	d := make([]int, nCustomers)
	for i := range d {
		d[i] = -1
	}
	d[start] = 0
	for frontier := []int{start}; len(frontier) > 0; {
		var next []int
		for _, v := range frontier {
			for _, f := range o.m.Knows[v] {
				if d[f] < 0 {
					d[f] = d[v] + 1
					next = append(next, f)
				}
			}
		}
		frontier = next
	}
	o.dist[start] = d
	return d
}

// check reports whether vals is a correct answer to (class, binding i).
func (o *oracle) check(ps *paramSets, class opClass, i int, vals []mmvalue.Value) bool {
	switch class {
	case clsQ3:
		return o.checkQ3(vals)
	case clsSPath:
		return o.checkSPath(ps[clsSPath][i].a, ps[clsSPath][i].b, vals)
	}
	return slices.Equal(canon(vals), o.golden[class][i])
}

// checkQ3 accepts any top ten consistent with the true revenues: ten rows,
// each product's revenue right, in descending order, and the same multiset of
// revenues as the true top ten — so products tied at the cut may swap.
func (o *oracle) checkQ3(vals []mmvalue.Value) bool {
	if len(vals) != 10 {
		return false
	}
	seen := map[string]bool{}
	for i, v := range vals {
		prod, rev := v.GetOr("product").AsString(), v.GetOr("revenue").AsInt()
		if seen[prod] || o.revenue[prod] != rev || rev != o.top10[i] {
			return false
		}
		seen[prod] = true
	}
	return true
}

// checkSPath accepts any shortest path: right length, right ends, every hop
// an edge. An unreachable goal must give the empty path.
func (o *oracle) checkSPath(from, to int, vals []mmvalue.Value) bool {
	if len(vals) != 1 {
		return false
	}
	path := vals[0].AsArray()
	d := o.bfs(from)[to]
	if d < 0 {
		return len(path) == 0
	}
	if len(path) != d+1 || path[0].AsString() != custKey(from) || path[d].AsString() != custKey(to) {
		return false
	}
	prev := from
	for _, v := range path[1:] {
		cur, err := strconv.Atoi(strings.TrimPrefix(v.AsString(), "c"))
		if err != nil || cur < 0 || cur >= nCustomers || !o.out[prev][cur] {
			return false
		}
		prev = cur
	}
	return true
}
