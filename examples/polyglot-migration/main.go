// Polyglot-migration demonstrates the paper's model-evolution story: legacy
// relational data migrates into documents, a graph, and RDF triples inside
// one database — the alternative to polyglot persistence across separate
// systems — and old-schema documents upgrade lazily on read.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/mmvalue"
	"repro/internal/relstore"
	"repro/unidb"
)

func main() {
	db, err := unidb.Open(unidb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	core := db.Core()
	m := &evolution.Migrator{Docs: core.Docs, Rels: core.Rels, Graphs: core.Graphs, RDF: core.RDF}

	// Legacy relational data.
	err = core.Update(func(tx engine.Tx) error {
		if err := core.Rels.CreateTable(tx, "legacy_customers", relstore.TableSchema{
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.TInt, NotNull: true},
				{Name: "name", Type: relstore.TString},
				{Name: "referrer", Type: relstore.TString},
			},
			PrimaryKey: []string{"id"},
		}); err != nil {
			return err
		}
		rows := []string{
			`{"id":1,"name":"Mary","referrer":""}`,
			`{"id":2,"name":"John","referrer":"1"}`,
			`{"id":3,"name":"Anne","referrer":"1"}`,
		}
		for _, r := range rows {
			if err := core.Rels.Insert(tx, "legacy_customers", mmvalue.MustParseJSON(r)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: relational -> documents (slide 94's arrow).
	err = core.Update(func(tx engine.Tx) error {
		n, err := m.TableToCollection(tx, "legacy_customers", "customers_v2")
		fmt.Printf("migrated %d rows to documents\n", n)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: documents -> graph along the referrer field.
	err = core.Update(func(tx engine.Tx) error {
		v, e, err := m.CollectionToGraph(tx, "customers_v2", "referrals", "referrer", "referred_by")
		fmt.Printf("built referral graph: %d vertices, %d edges\n", v, e)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: documents -> RDF knowledge graph.
	err = core.Update(func(tx engine.Tx) error {
		n, err := m.CollectionToTriples(tx, "customers_v2", "kg", "cust:")
		fmt.Printf("exported %d documents as RDF triples\n", n)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// The same data is now queryable in three models.
	res, err := db.Query(`
		FOR v IN 1..1 INBOUND '1' referrals.referred_by
		  RETURN v.name`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("customers referred by Mary (graph):", unidb.Strings(res))

	res, err = db.Query(`FOR t IN TRIPLES('kg', '<cust:2>', null, null) RETURN CONCAT(t.p, '=', t.o)`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("John in the knowledge graph (RDF):", unidb.Strings(res))

	// Step 4: lazy schema evolution — v1 documents split "name" on read.
	v := &evolution.Versioned{
		Docs: core.Docs, Coll: "customers_v2", Target: 1,
		Migrations: []evolution.Migration{{
			From: 0,
			Upgrade: func(doc mmvalue.Value) mmvalue.Value {
				return doc.Set("display_name",
					mmvalue.String("Customer "+doc.GetOr("name").AsString()))
			},
		}},
	}
	err = core.Update(func(tx engine.Tx) error {
		doc, _, err := v.Get(tx, "3")
		if err != nil {
			return err
		}
		fmt.Println("lazily upgraded document:", doc)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
