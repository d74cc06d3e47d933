package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"medshare"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// cascade: Fig. 1's Patient, Doctor and Researcher with the two Fig. 3
// shares over cascadeRecords synthetic records, data channel on loopback
// TCP. One client cycles through three edits — a researcher's mechanism
// of action (one hop to the doctor), a doctor's dosage (one hop to the
// patient) and a doctor's medication rename (Fig. 5's cascade into both
// shares, re-keying the researcher's side) — and after each is final
// every receiving stakeholder does a proof-verified point read of a
// changed row.
const cascadeRecords = 2000

const (
	shareD13 = medshare.ShareIDD13 // Patient <-> Doctor
	shareD23 = medshare.ShareIDD23 // Researcher <-> Doctor
)

type cascade struct {
	r   *rig
	rng *rand.Rand
	m   *fig1Model

	patient, doctor, researcher *core.Peer
	cycle                       int
	cols                        map[string][]string // share → view columns
	ids                         []int64             // every patient, sorted
}

func (c *cascade) setup(ctx context.Context, r *rig, seed int64) error {
	c.r = r
	c.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	recs := genRecords(cascadeRecords, seed)
	c.m = newFig1Model(recs)
	c.ids = c.m.patientIDs()
	return c.build(ctx, recs)
}

// build registers the Fig. 1 stakeholders and shares over recs.
func (c *cascade) build(ctx context.Context, recs []record) error {
	r := c.r
	var err error
	// Fig. 2 draws one node per stakeholder; with fewer nodes they share.
	n := len(r.nodes)
	if c.patient, err = r.addPeerOn("Patient", 0); err != nil {
		return err
	}
	if c.doctor, err = r.addPeerOn("Doctor", n-1); err != nil {
		return err
	}
	if c.researcher, err = r.addPeerOn("Researcher", n/2); err != nil {
		return err
	}
	full := reldb.MustNewTable(workload.FullSchema("full"))
	for _, rc := range recs {
		full.MustInsert(reldb.Row{
			reldb.I(rc.patient), reldb.S(rc.med), reldb.S(rc.clinical), reldb.S(rc.address),
			reldb.S(rc.dosage), reldb.S(rc.mechanism), reldb.S(rc.mode),
		})
	}
	for _, t := range []struct {
		p    *core.Peer
		name string
		cols []string
		key  []string
	}{
		{c.patient, "D1", workload.PatientCols, nil},
		{c.researcher, "D2", workload.ResearcherCols, []string{colMed}},
		{c.doctor, "D3", workload.DoctorCols, nil},
	} {
		tbl, err := full.Project(t.name, t.cols, t.key)
		if err != nil {
			return err
		}
		t.p.DB().PutTable(tbl)
	}
	d, p, rs := c.doctor.Address(), c.patient.Address(), c.researcher.Address()
	// Fig. 3 permissions, registered by the doctor (Section III-C2).
	err = c.doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID: shareD13, SourceTable: "D3", Lens: r.lens(medshare.LensD31()), ViewName: "D31",
		Peers: []identity.Address{p, d},
		WritePerm: map[string][]identity.Address{
			colPatient: {d}, colMed: {d}, colDosage: {d}, colClinical: {p, d},
		},
		Authority: d,
	})
	if err != nil {
		return err
	}
	err = c.doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID: shareD23, SourceTable: "D3", Lens: r.lens(medshare.LensD32()), ViewName: "D32",
		Peers:     []identity.Address{rs, d},
		WritePerm: map[string][]identity.Address{colMed: {d, rs}, colMechanism: {rs}},
		Authority: rs,
	})
	if err != nil {
		return err
	}
	// On more than one node the registrations must gossip over first.
	if _, err := c.patient.WaitForShare(ctx, shareD13); err != nil {
		return err
	}
	if _, err := c.researcher.WaitForShare(ctx, shareD23); err != nil {
		return err
	}
	if err := c.patient.AttachShare(shareD13, "D1", r.lens(medshare.LensD13()), "D13"); err != nil {
		return err
	}
	if err := c.researcher.AttachShare(shareD23, "D2", r.lens(medshare.LensD23()), "D23"); err != nil {
		return err
	}
	c.cols = make(map[string][]string)
	for id, p := range map[string]*core.Peer{shareD13: c.patient, shareD23: c.researcher} {
		v, err := p.View(id)
		if err != nil {
			return err
		}
		c.cols[id] = v.Schema().ColumnNames()
	}
	// Warm-up: one whole cycle, so every path has run once before the
	// clock starts.
	return c.round(ctx, newMeter())
}

func (c *cascade) edge() edgeSnap { return edgeSnap{} }

func (c *cascade) stop() {}

func (c *cascade) run(ctx context.Context, m *meter, until time.Time, maxRounds int) {
	loop(until, maxRounds, func() error { return c.round(ctx, m) })
}

// round is one cycle of the three edits, each followed by its reads.
func (c *cascade) round(ctx context.Context, m *meter) error {
	c.cycle++
	if err := c.editMechanism(ctx, m); err != nil {
		return err
	}
	if err := c.editDosage(ctx, m); err != nil {
		return err
	}
	return c.rename(ctx, m)
}

// edit runs one update operation on table.
func (c *cascade) edit(ctx context.Context, m *meter, kind string, p *core.Peer, table string,
	mutate func(*reldb.Table) error, wantShares int) error {
	return timed(c.r.tr, m, kind, classUpdate, wantShares, true, func() error {
		return c.r.editAndWait(ctx, p, table, mutate, wantShares)
	})
}

// read runs one proof-verified point read and checks the proven row's
// column against the model.
func (c *cascade) read(m *meter, p *core.Peer, shareID string, key reldb.Row, col, want string) error {
	return timed(c.r.tr, m, "read.proof", classRead, 0, true, func() error {
		row, err := provenRead(c.r.tr, p, c.r.watch, shareID, key)
		if err != nil {
			return err
		}
		got, err := rowValue(c.cols[shareID], row, col)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s read %s %v: %s is %q, model has %q", p.Name(), shareID, key, col, got, want)
		}
		return nil
	})
}

func (c *cascade) pickMed() string {
	meds := c.m.meds()
	return meds[c.rng.Intn(len(meds))]
}

func (c *cascade) editMechanism(ctx context.Context, m *meter) error {
	med := c.pickMed()
	val := fmt.Sprintf("MeA-%d-%d", c.cycle, c.rng.Intn(1_000_000))
	err := c.edit(ctx, m, "edit.mechanism", c.researcher, "D2", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.S(med)}, map[string]reldb.Value{colMechanism: reldb.S(val)})
	}, 1)
	if err != nil {
		return err
	}
	c.m.setMechanism(med, val)
	return c.read(m, c.doctor, shareD23, reldb.Row{reldb.S(med)}, colMechanism, val)
}

func (c *cascade) editDosage(ctx context.Context, m *meter) error {
	id := c.ids[c.rng.Intn(len(c.ids))]
	val := fmt.Sprintf("dose-%d-%d", c.cycle, c.rng.Intn(1_000_000))
	err := c.edit(ctx, m, "edit.dosage", c.doctor, "D3", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(id)}, map[string]reldb.Value{colDosage: reldb.S(val)})
	}, 1)
	if err != nil {
		return err
	}
	c.m.setDosage(id, val)
	return c.read(m, c.patient, shareD13, reldb.Row{reldb.I(id)}, colDosage, val)
}

func (c *cascade) rename(ctx context.Context, m *meter) error {
	old := c.pickMed()
	name := fmt.Sprintf("Rx-%d-%d", c.cycle, c.rng.Intn(1_000_000))
	ids := c.m.patients(old)
	err := c.edit(ctx, m, "edit.rename", c.doctor, "D3", func(t *reldb.Table) error {
		for _, id := range ids {
			if err := t.Update(reldb.Row{reldb.I(id)}, map[string]reldb.Value{colMed: reldb.S(name)}); err != nil {
				return err
			}
		}
		return nil
	}, 2)
	if err != nil {
		return err
	}
	mech := c.m.research[old][0]
	c.m.rename(old, name)
	if err := c.read(m, c.patient, shareD13, reldb.Row{reldb.I(ids[0])}, colMed, name); err != nil {
		return err
	}
	return c.read(m, c.researcher, shareD23, reldb.Row{reldb.S(name)}, colMechanism, mech)
}

// check compares every stakeholder's tables with the model and every
// replica with its share's on-chain payload hash.
func (c *cascade) check(ctx context.Context) error {
	m, f := c.m, c.r.watch
	for _, chk := range []func() error{
		func() error { return checkSource(c.patient, "D1", m.d1()) },
		func() error { return checkSource(c.researcher, "D2", m.d2()) },
		func() error { return checkSource(c.doctor, "D3", m.d3()) },
		func() error { return checkReplica(c.patient, f, shareD13, m.d13()) },
		func() error { return checkReplica(c.doctor, f, shareD13, m.d13()) },
		func() error { return checkReplica(c.researcher, f, shareD23, m.d23()) },
		func() error { return checkReplica(c.doctor, f, shareD23, m.d23()) },
	} {
		if err := chk(); err != nil {
			return err
		}
	}
	return nil
}
