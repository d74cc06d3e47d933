package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// ingest: one hub, ingestShares partners and as many independent
// ingestRows-row shares over the in-memory data channel. Each round one
// client edits a row across every share, proposes them as one batch and
// waits until all are final; then a few partners do proof-verified point
// reads of the edited row.
const (
	ingestShares = 64
	ingestRows   = 8
	ingestReads  = 4 // proof-verified reads per round
)

type ingest struct {
	r        *rig
	rng      *rand.Rand
	m        *cellModel
	hub      *core.Peer
	partners []*core.Peer
	ids      []string
	round    int
}

func (g *ingest) setup(ctx context.Context, r *rig, seed int64) error {
	g.r = r
	g.rng = rand.New(rand.NewSource(seed ^ 0x1ee7))
	g.m = newCellModel()
	genCells(g.m, ingestRows, ingestShares, seed)
	var err error
	if g.hub, err = r.addPeer("hub"); err != nil {
		return err
	}
	g.hub.DB().PutTable(cellTable("T", g.m, ingestRows, ingestShares, -1))
	g.partners, g.ids = nil, nil
	for i := 0; i < ingestShares; i++ {
		p, err := r.addPeer(fmt.Sprintf("partner-%02d", i))
		if err != nil {
			return err
		}
		p.DB().PutTable(cellTable("T", g.m, ingestRows, ingestShares, i))
		col := valueCol(i)
		id := fmt.Sprintf("S%02d", i)
		err = g.hub.RegisterShare(ctx, core.RegisterShareArgs{
			ID: id, SourceTable: "T", Lens: r.lens(bx.Project(id+"h", []string{"k", col}, nil)), ViewName: id + "h",
			Peers:     []identity.Address{g.hub.Address(), p.Address()},
			WritePerm: map[string][]identity.Address{col: {g.hub.Address()}},
		})
		if err != nil {
			return err
		}
		if err := p.AttachShare(id, "T", r.lens(bx.Project(id+"p", []string{"k", col}, nil)), id+"p"); err != nil {
			return err
		}
		g.partners = append(g.partners, p)
		g.ids = append(g.ids, id)
	}
	// Warm-up: two rounds.
	for i := 0; i < 2; i++ {
		if err := g.doRound(ctx, newMeter()); err != nil {
			return err
		}
	}
	return nil
}

// cellTable builds a k-keyed table from the cell model: every column
// when only < 0, else key plus that one column.
func cellTable(name string, m *cellModel, nrows, ncols, only int) *reldb.Table {
	s := reldb.Schema{Name: name, Key: []string{"k"}}
	s.Columns = append(s.Columns, reldb.Column{Name: "k", Type: reldb.KindInt})
	for i := 0; i < ncols; i++ {
		if only < 0 || i == only {
			s.Columns = append(s.Columns, reldb.Column{Name: valueCol(i), Type: reldb.KindString})
		}
	}
	t := reldb.MustNewTable(s)
	for r := 0; r < nrows; r++ {
		row := reldb.Row{reldb.I(int64(r))}
		for i := 0; i < ncols; i++ {
			if only < 0 || i == only {
				row = append(row, reldb.S(m.get(int64(r), i)))
			}
		}
		t.MustInsert(row)
	}
	return t
}

func (g *ingest) edge() edgeSnap { return edgeSnap{} }

func (g *ingest) stop() {}

func (g *ingest) run(ctx context.Context, m *meter, until time.Time, maxRounds int) {
	loop(until, maxRounds, func() error { return g.doRound(ctx, m) })
}

// doRound edits one row across every share, proposes all of them as one
// batch, waits for every one to be final, then reads back.
func (g *ingest) doRound(ctx context.Context, m *meter) error {
	g.round++
	row := int64(g.rng.Intn(ingestRows))
	vals := make([]string, ingestShares)
	set := make(map[string]reldb.Value, ingestShares)
	for i := range vals {
		vals[i] = fmt.Sprintf("r%d-%d-%d", g.round, i, g.rng.Intn(1_000_000))
		set[valueCol(i)] = reldb.S(vals[i])
	}
	err := timed(g.r.tr, m, "edit.batch", classUpdate, ingestShares, true, func() error {
		return g.r.editAndWait(ctx, g.hub, "T", func(t *reldb.Table) error {
			return t.Update(reldb.Row{reldb.I(row)}, set)
		}, ingestShares)
	})
	if err != nil {
		return err
	}
	for i, v := range vals {
		g.m.set(row, i, v)
	}
	for q := 0; q < ingestReads; q++ {
		i := (g.round*ingestReads + q) % ingestShares
		if err := g.read(m, i, row, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

func (g *ingest) read(m *meter, i int, row int64, want string) error {
	return timed(g.r.tr, m, "read.proof", classRead, 0, true, func() error {
		got, err := provenRead(g.r.tr, g.partners[i], g.r.watch, g.ids[i], reldb.Row{reldb.I(row)})
		if err != nil {
			return err
		}
		if v := valueString(got[1]); v != want {
			return fmt.Errorf("partner %d read row %d: %q, model has %q", i, row, v, want)
		}
		return nil
	})
}

// check compares the hub's source, every partner's source and both
// replicas of every share with the model and the on-chain payload hash.
func (g *ingest) check(ctx context.Context) error {
	if err := checkSource(g.hub, "T", g.m.full(ingestRows, ingestShares)); err != nil {
		return err
	}
	for i, p := range g.partners {
		want := g.m.view(ingestRows, i, valueCol(i))
		if err := checkSource(p, "T", want); err != nil {
			return err
		}
		if err := checkReplica(p, g.r.watch, g.ids[i], want); err != nil {
			return err
		}
		if err := checkReplica(g.hub, g.r.watch, g.ids[i], want); err != nil {
			return err
		}
	}
	return nil
}
