package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The reference model is computed apart from the program: plain Go maps,
// no reldb or bx code. The end-of-run check compares every
// stakeholder's tables against it.

// Fig. 1 attribute names, as the program's tables name them.
const (
	colPatient   = "patient_id"
	colMed       = "medication_name"
	colClinical  = "clinical_data"
	colAddress   = "address"
	colDosage    = "dosage"
	colMechanism = "mechanism_of_action"
	colMode      = "mode_of_action"
)

// moaPending is the researcher's mode of action for a medication it
// first hears of through a rename (the D23 lens's insert default).
const moaPending = "MoA-pending"

// record is one full Fig. 1 medical record (a0-a6).
type record struct {
	patient                                         int64
	med, clinical, address, dosage, mechanism, mode string
}

var (
	genMeds = []string{
		"Ibuprofen", "Wellbutrin", "Amoxicillin", "Lisinopril", "Metformin",
		"Atorvastatin", "Omeprazole", "Levothyroxine", "Amlodipine", "Gabapentin",
		"Sertraline", "Prednisone", "Azithromycin", "Warfarin", "Insulin",
	}
	genCities  = []string{"Sapporo", "Osaka", "Tokyo", "Kyoto", "Nagoya", "Fukuoka", "Sendai", "Kobe"}
	genDosages = []string{
		"one tablet every 4h", "100 mg twice daily", "250 mg three times daily",
		"10 mg at bedtime", "two tablets every 6h", "500 mg once daily",
	}
)

// genRecords makes n full records from seed. Mechanism and mode of
// action are functions of the medication (Fig. 1's a1 → a5, a6).
func genRecords(n int, seed int64) []record {
	rng := rand.New(rand.NewSource(seed))
	mech := make(map[string]string, len(genMeds))
	mode := make(map[string]string, len(genMeds))
	for _, m := range genMeds {
		mech[m] = fmt.Sprintf("MeA-%s-%d", m, rng.Intn(1000))
		mode[m] = fmt.Sprintf("MoA-%s-%d", m, rng.Intn(1000))
	}
	out := make([]record, n)
	for i := range out {
		// Every medication appears at least once, so the researcher's
		// table always holds all of them.
		med := genMeds[i%len(genMeds)]
		if i >= len(genMeds) {
			med = genMeds[rng.Intn(len(genMeds))]
		}
		out[i] = record{
			patient:   int64(188 + i),
			med:       med,
			clinical:  fmt.Sprintf("CliD%d", i+1),
			address:   genCities[rng.Intn(len(genCities))],
			dosage:    genDosages[rng.Intn(len(genDosages))],
			mechanism: mech[med],
			mode:      mode[med],
		}
	}
	return out
}

// fig1Model holds the full records plus the researcher's own
// medication-keyed table, which diverges from the records after a
// rename (the new key's mode of action is pending).
type fig1Model struct {
	recs     map[int64]*record
	research map[string][2]string // medication → (mechanism, mode)
}

func newFig1Model(recs []record) *fig1Model {
	m := &fig1Model{recs: make(map[int64]*record, len(recs)), research: make(map[string][2]string)}
	for i := range recs {
		r := recs[i]
		m.recs[r.patient] = &r
		m.research[r.med] = [2]string{r.mechanism, r.mode}
	}
	return m
}

// setMechanism is the researcher's edit: the mechanism of action of one
// medication, in every record that prescribes it.
func (m *fig1Model) setMechanism(med, v string) {
	for _, r := range m.recs {
		if r.med == med {
			r.mechanism = v
		}
	}
	m.research[med] = [2]string{v, m.research[med][1]}
}

// setDosage is the doctor's edit of one patient's dosage.
func (m *fig1Model) setDosage(patient int64, v string) { m.recs[patient].dosage = v }

// rename is the doctor's medication rename: every record moves to the
// new name; on the researcher's side the old key goes and the new one
// arrives with the shared mechanism and a pending mode of action.
func (m *fig1Model) rename(old, name string) {
	for _, r := range m.recs {
		if r.med == old {
			r.med = name
		}
	}
	mech := m.research[old][0]
	delete(m.research, old)
	m.research[name] = [2]string{mech, moaPending}
}

// meds lists the current medication names, sorted.
func (m *fig1Model) meds() []string {
	out := make([]string, 0, len(m.research))
	for med := range m.research {
		out = append(out, med)
	}
	sort.Strings(out)
	return out
}

// patients lists the patients on a medication, sorted.
func (m *fig1Model) patients(med string) []int64 {
	var out []int64
	for id, r := range m.recs {
		if r.med == med {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// patientIDs lists every patient, sorted.
func (m *fig1Model) patientIDs() []int64 {
	out := make([]int64, 0, len(m.recs))
	for id := range m.recs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rows is an expected table: key string → column → value.
type rows map[string]map[string]string

func (r *record) field(col string) string {
	switch col {
	case colPatient:
		return strconv.FormatInt(r.patient, 10)
	case colMed:
		return r.med
	case colClinical:
		return r.clinical
	case colAddress:
		return r.address
	case colDosage:
		return r.dosage
	case colMechanism:
		return r.mechanism
	case colMode:
		return r.mode
	}
	panic("unknown column " + col)
}

// byPatient projects the records onto cols, keyed by patient.
func (m *fig1Model) byPatient(cols ...string) rows {
	out := make(rows, len(m.recs))
	for id, r := range m.recs {
		row := make(map[string]string, len(cols)+1)
		row[colPatient] = strconv.FormatInt(id, 10)
		for _, c := range cols {
			row[c] = r.field(c)
		}
		out[row[colPatient]] = row
	}
	return out
}

// Expected contents of each stakeholder's tables (Fig. 1).
func (m *fig1Model) d1() rows { return m.byPatient(colMed, colClinical, colAddress, colDosage) }
func (m *fig1Model) d3() rows {
	return m.byPatient(colMed, colClinical, colDosage, colMechanism)
}
func (m *fig1Model) d13() rows { return m.byPatient(colMed, colClinical, colDosage) }

func (m *fig1Model) d2() rows {
	out := make(rows, len(m.research))
	for med, v := range m.research {
		out[med] = map[string]string{colMed: med, colMechanism: v[0], colMode: v[1]}
	}
	return out
}

// d23 is the researcher/doctor share: medication → mechanism, from the
// doctor's records (both sides agree on it once an update is final).
func (m *fig1Model) d23() rows {
	out := make(rows)
	for _, r := range m.recs {
		out[r.med] = map[string]string{colMed: r.med, colMechanism: r.mechanism}
	}
	return out
}

// cellModel is the reference for the ingest and serve workloads: a table
// of string cells keyed by (row, column index), with the current value
// and every value ever written to each cell.
type cellModel struct {
	mu   sync.Mutex
	cur  map[cellKey]string
	seen map[cellKey]map[string]bool
}

type cellKey struct {
	row int64
	col int
}

func newCellModel() *cellModel {
	return &cellModel{cur: make(map[cellKey]string), seen: make(map[cellKey]map[string]bool)}
}

// offer records a value about to be written: readers may see it from
// the moment the write is submitted.
func (c *cellModel) offer(row int64, col int, v string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cellKey{row, col}
	if c.seen[k] == nil {
		c.seen[k] = make(map[string]bool, 2)
	}
	c.seen[k][v] = true
}

// set records a value as the cell's current one.
func (c *cellModel) set(row int64, col int, v string) {
	c.offer(row, col, v)
	c.mu.Lock()
	c.cur[cellKey{row, col}] = v
	c.mu.Unlock()
}

// held reports whether the cell ever held v.
func (c *cellModel) held(row int64, col int, v string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[cellKey{row, col}][v]
}

// get returns the cell's current value.
func (c *cellModel) get(row int64, col int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur[cellKey{row, col}]
}

// view is the expected content of a share projecting column col:
// key "k" plus the value column named name.
func (c *cellModel) view(nrows, col int, name string) rows {
	out := make(rows, nrows)
	for r := 0; r < nrows; r++ {
		k := strconv.Itoa(r)
		out[k] = map[string]string{"k": k, name: c.get(int64(r), col)}
	}
	return out
}

// full is the expected content of the hub's source: key "k" plus every
// value column.
func (c *cellModel) full(nrows, ncols int) rows {
	out := make(rows, nrows)
	for r := 0; r < nrows; r++ {
		k := strconv.Itoa(r)
		row := map[string]string{"k": k}
		for i := 0; i < ncols; i++ {
			row[valueCol(i)] = c.get(int64(r), i)
		}
		out[k] = row
	}
	return out
}

// valueCol names the value column of share i (the program's
// workload.ManyShareCol spelling).
func valueCol(i int) string { return fmt.Sprintf("v%d", i) }

// genCells makes the ingest/serve source values from seed.
func genCells(c *cellModel, nrows, ncols int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < nrows; r++ {
		for i := 0; i < ncols; i++ {
			c.set(int64(r), i, fmt.Sprintf("v%d-%d-%d", i, r, rng.Intn(1000)))
		}
	}
}

// diffRows reports the first difference between two expected tables.
func diffRows(name string, got, want rows) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, model has %d", name, len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("%s: row %s missing", name, k)
		}
		w := want[k]
		if len(g) != len(w) {
			return fmt.Errorf("%s: row %s has columns %s, model has %s", name, k, colList(g), colList(w))
		}
		for col, wv := range w {
			if g[col] != wv {
				return fmt.Errorf("%s: row %s column %s is %q, model has %q", name, k, col, g[col], wv)
			}
		}
	}
	return nil
}

func colList(r map[string]string) string {
	cols := make([]string, 0, len(r))
	for c := range r {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return strings.Join(cols, ",")
}
