package query

import (
	"reflect"
	"testing"
)

// Pins the compile-time read-set/cacheability analysis the result cache
// keys on: named sources and literal cross-model accesses are collected;
// `@>` and FTSEARCH read their collection like any other access; DML and
// dynamic store names are uncacheable.

func TestReadSetCollection(t *testing.T) {
	cases := []struct {
		text string
		want []ReadRef
	}{
		{
			`FOR u IN users FILTER u.age > 30 RETURN u`,
			[]ReadRef{{ReadSource, "users"}},
		},
		{
			// Duplicate sources dedup; order follows first appearance.
			`FOR u IN users FOR v IN users FOR o IN orders RETURN [u, v, o]`,
			[]ReadRef{{ReadSource, "users"}, {ReadSource, "orders"}},
		},
		{
			`FOR u IN users RETURN DOCUMENT("profiles", u._key)`,
			[]ReadRef{{ReadSource, "users"}, {ReadCollection, "profiles"}},
		},
		{
			`FOR u IN users RETURN KV("sessions", u._key)`,
			[]ReadRef{{ReadSource, "users"}, {ReadBucket, "sessions"}},
		},
		{
			`FOR u IN users RETURN OUT("social", null, u._key)`,
			[]ReadRef{{ReadSource, "users"}, {ReadGraph, "social"}},
		},
		{
			`FOR u IN users RETURN SHORTEST_PATH("social", u._key, "zz")`,
			[]ReadRef{{ReadSource, "users"}, {ReadGraph, "social"}},
		},
		{
			`FOR u IN users RETURN XPATH("cfg", "/a/b")`,
			[]ReadRef{{ReadSource, "users"}, {ReadXML, "cfg"}},
		},
		{
			`FOR t IN TRIPLES("kg", null, "knows", null) RETURN t`,
			[]ReadRef{{ReadRDF, "kg"}},
		},
		{
			// Subquery read-set unions into the parent.
			`FOR u IN users LET n = (FOR o IN orders FILTER o.user == u._key RETURN o) RETURN [u, n]`,
			[]ReadRef{{ReadSource, "users"}, {ReadSource, "orders"}},
		},
		{
			// Full-text and GIN containment are index reads of their
			// collection, also nested.
			`FOR id IN FTSEARCH("posts", "database") RETURN id`,
			[]ReadRef{{ReadCollection, "posts"}},
		},
		{
			`FOR u IN users FILTER u.tags @> ["go"] RETURN u`,
			[]ReadRef{{ReadSource, "users"}},
		},
		{
			`FOR u IN users LET n = (FOR p IN posts FILTER p @> {by: u._key} RETURN p) RETURN n`,
			[]ReadRef{{ReadSource, "users"}, {ReadSource, "posts"}},
		},
	}
	for _, tc := range cases {
		p := mustMMQL(t, tc.text)
		if !p.Cacheable() {
			t.Errorf("%q: Cacheable() = false, want true", tc.text)
			continue
		}
		if got := p.ReadSet(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: ReadSet() = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestReadSetTraversal(t *testing.T) {
	p := mustMMQL(t, `FOR v IN 1..2 OUTBOUND "alice" social RETURN v`)
	if !p.Cacheable() {
		t.Fatal("traversal pipeline should be cacheable")
	}
	want := []ReadRef{{ReadGraph, "social"}}
	if got := p.ReadSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadSet() = %v, want %v", got, want)
	}
}

func TestReadSetUncacheable(t *testing.T) {
	for _, text := range []string{
		// DML.
		`INSERT {name: "x"} INTO users`,
		`FOR u IN users UPDATE u._key WITH {seen: true} IN users`,
		// Mutating subquery.
		`FOR u IN users LET x = (FOR a IN audit INSERT {u: u._key} INTO audit) RETURN u`,
		// Dynamic store names.
		`FOR u IN users RETURN DOCUMENT(u.coll, u._key)`,
		`FOR u IN users RETURN KV(CONCAT("s", u._key), u._key)`,
		`FOR id IN FTSEARCH(@coll, "database") RETURN id`,
	} {
		if mustMMQL(t, text).Cacheable() {
			t.Errorf("%q: Cacheable() = true, want false", text)
		}
	}
}

func TestReadSetUnanalyzedPipelineUncacheable(t *testing.T) {
	p := &Pipeline{Clauses: []Clause{&ReturnClause{Expr: &Literal{}}}}
	if p.Cacheable() {
		t.Fatal("hand-built unanalyzed pipeline must not be cacheable")
	}
}
