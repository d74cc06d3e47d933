package main

import (
	"testing"
)

// fig1Records is the exact two-row example of Fig. 1.
func fig1Records() []record {
	return []record{
		{188, "Ibuprofen", "CliD1", "Sapporo", "one tablet every 4h", "MeA1", "MoA1"},
		{189, "Wellbutrin", "CliD2", "Osaka", "100 mg twice daily", "MeA2", "MoA2"},
	}
}

// TestFig1ModelByHand applies one edit of each kind to Fig. 1's two-row
// example and compares every stakeholder's table with the contents
// worked out by hand.
func TestFig1ModelByHand(t *testing.T) {
	m := newFig1Model(fig1Records())
	m.setMechanism("Ibuprofen", "MeA1x")
	m.setDosage(189, "200 mg daily")
	m.rename("Wellbutrin", "Bupropion")

	type row = map[string]string
	cases := []struct {
		name      string
		got, want rows
	}{
		{"D1", m.d1(), rows{
			"188": row{colPatient: "188", colMed: "Ibuprofen", colClinical: "CliD1", colAddress: "Sapporo", colDosage: "one tablet every 4h"},
			"189": row{colPatient: "189", colMed: "Bupropion", colClinical: "CliD2", colAddress: "Osaka", colDosage: "200 mg daily"},
		}},
		{"D2", m.d2(), rows{
			"Ibuprofen": row{colMed: "Ibuprofen", colMechanism: "MeA1x", colMode: "MoA1"},
			"Bupropion": row{colMed: "Bupropion", colMechanism: "MeA2", colMode: "MoA-pending"},
		}},
		{"D3", m.d3(), rows{
			"188": row{colPatient: "188", colMed: "Ibuprofen", colClinical: "CliD1", colDosage: "one tablet every 4h", colMechanism: "MeA1x"},
			"189": row{colPatient: "189", colMed: "Bupropion", colClinical: "CliD2", colDosage: "200 mg daily", colMechanism: "MeA2"},
		}},
		{"D13", m.d13(), rows{
			"188": row{colPatient: "188", colMed: "Ibuprofen", colClinical: "CliD1", colDosage: "one tablet every 4h"},
			"189": row{colPatient: "189", colMed: "Bupropion", colClinical: "CliD2", colDosage: "200 mg daily"},
		}},
		{"D23", m.d23(), rows{
			"Ibuprofen": row{colMed: "Ibuprofen", colMechanism: "MeA1x"},
			"Bupropion": row{colMed: "Bupropion", colMechanism: "MeA2"},
		}},
	}
	for _, c := range cases {
		if err := diffRows(c.name, c.got, c.want); err != nil {
			t.Error(err)
		}
	}
	if got := m.meds(); len(got) != 2 || got[0] != "Bupropion" || got[1] != "Ibuprofen" {
		t.Errorf("medications %v, want [Bupropion Ibuprofen]", got)
	}
	if got := m.patients("Bupropion"); len(got) != 1 || got[0] != 189 {
		t.Errorf("patients on Bupropion %v, want [189]", got)
	}
}

// TestGenRecordsFunctionalDependency checks that generated records obey
// medication → (mechanism, mode) and are reproducible from the seed.
func TestGenRecordsFunctionalDependency(t *testing.T) {
	a, b := genRecords(500, 7), genRecords(500, 7)
	pharm := make(map[string][2]string)
	for i, r := range a {
		if r != b[i] {
			t.Fatalf("record %d differs between two generations from one seed", i)
		}
		if p, ok := pharm[r.med]; ok && p != [2]string{r.mechanism, r.mode} {
			t.Fatalf("%s has two pharmacologies: %v and %v", r.med, p, [2]string{r.mechanism, r.mode})
		}
		pharm[r.med] = [2]string{r.mechanism, r.mode}
	}
	if len(pharm) != len(genMeds) {
		t.Fatalf("%d medications generated, want all %d", len(pharm), len(genMeds))
	}
}

// TestCellModelHistory checks the ingest/serve reference: a read may
// return any value the cell held, the check compares current values.
func TestCellModelHistory(t *testing.T) {
	c := newCellModel()
	genCells(c, 2, 2, 1)
	first := c.get(1, 1)
	c.offer(1, 1, "next")
	if !c.held(1, 1, "next") || !c.held(1, 1, first) || c.held(1, 1, "never") {
		t.Fatal("history does not hold exactly the offered and initial values")
	}
	if c.get(1, 1) != first {
		t.Fatal("an offered value became current before it was set")
	}
	c.set(1, 1, "next")
	if got := c.view(2, 1, "v1")["1"]["v1"]; got != "next" {
		t.Fatalf("view has %q, want next", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(v); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v, want [2.75 5.5 8.25]", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles %v, want [1 2 4]", q)
	}
}
