package server

import (
	"context"
	"encoding/json"
	"fmt"

	"drain/internal/experiments"
)

// execute runs one canonical job and encodes its Response body. The
// body is what the cache stores: it must be a deterministic function of
// c, so it contains no timings, hostnames, or other run-local state.
func (s *Server) execute(ctx context.Context, key string, c canonical) ([]byte, error) {
	var (
		tables   []experiments.Table
		markdown string
		err      error
	)
	switch c.Kind {
	case KindFigure:
		tables, markdown, err = executeFigure(ctx, c)
	case KindSweep:
		tables, markdown, err = executeSweep(ctx, c)
	default:
		err = fmt.Errorf("server: unknown canonical kind %q", c.Kind)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(Response{Key: key, Kind: c.Kind, Tables: tables, Markdown: markdown})
}

// executeFigure re-runs one registry experiment; the markdown is
// byte-identical to the deterministic part of cmd/experiments' output
// for the same (fig, scale, seed).
func executeFigure(ctx context.Context, c canonical) ([]experiments.Table, string, error) {
	e, ok := experiments.ByID(c.Fig)
	if !ok {
		return nil, "", fmt.Errorf("unknown figure %q", c.Fig)
	}
	sc := experiments.Quick
	if c.Scale == "full" {
		sc = experiments.Full
	}
	tables, err := e.Run(ctx, sc, c.Seed)
	if err != nil {
		return nil, "", err
	}
	return tables, experiments.RenderFigure(e, tables), nil
}

// executeSweep runs a load sweep (the service form of cmd/drainsim
// -sweep) on the server's run slots and renders it as one table.
func executeSweep(ctx context.Context, c canonical) ([]experiments.Table, string, error) {
	curve, err := experiments.LoadSweep(ctx, c.Params, c.Pattern, c.Rates, c.Warmup, c.Measure)
	if err != nil {
		return nil, "", err
	}
	t := experiments.Table{
		ID: "sweep",
		Title: fmt.Sprintf("%v, %dx%d mesh, %d faults, %s traffic",
			c.Params.Scheme, c.Params.Width, c.Params.Height, c.Params.Faults, c.Pattern),
		Columns: []string{"offered", "accepted", "avg latency", "p99"},
	}
	for _, pt := range curve {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", pt.Offered),
			fmt.Sprintf("%.4f", pt.Accepted),
			fmt.Sprintf("%.1f", pt.AvgLat),
			fmt.Sprintf("%d", pt.P99Lat),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("saturation throughput %.4f packets/node/cycle; warmup %d, measure %d cycles, seed %d.",
			curve.Saturation(), c.Warmup, c.Measure, c.Params.Seed))
	tables := []experiments.Table{t}
	return tables, t.Markdown() + "\n", nil
}
