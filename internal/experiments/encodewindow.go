package experiments

import "fmt"

// EncodeWindowRow is one cell of the encode-window experiment: the wall-clock
// duration of the whole encoding job (the window during which the cluster
// runs below its replication-or-parity redundancy target) for the gather and
// pipelined encode paths at one background-traffic level.
type EncodeWindowRow struct {
	// InjectedFrac is the injected cross-traffic rate as a fraction of link
	// bandwidth (the paper's Iperf UDP sweep).
	InjectedFrac float64 `json:"injected_frac"`
	// GatherSeconds / PipelinedSeconds are the measured encode windows.
	GatherSeconds    float64 `json:"gather_seconds"`
	PipelinedSeconds float64 `json:"pipelined_seconds"`
	// Shrinkage is 1 - pipelined/gather: the fraction of the encode window
	// the pipeline removes.
	Shrinkage float64 `json:"shrinkage"`
	// GatherCrossDownloads / PipelinedCrossDownloads compare cross-rack
	// traffic in block-equivalents per run (pipelined hops count m blocks
	// per rack boundary).
	GatherCrossDownloads    int `json:"gather_cross_downloads"`
	PipelinedCrossDownloads int `json:"pipelined_cross_downloads"`
}

// EncodeWindowResult is RunEncodeWindow's output.
type EncodeWindowResult struct {
	Rows    []EncodeWindowRow `json:"rows"`
	Summary *Table            `json:"-"`
}

// encodeWindowDefaults picks a geometry where the pipeline has room to help:
// few racks with several nodes each, so a chain hop aggregates multiple
// stripe members before crossing the core, and a wide code (k much larger
// than m) so the gather path's k-block fan-in dwarfs the pipeline's m-block
// partial sums. Fields the caller set explicitly are kept.
func encodeWindowDefaults(o TestbedOptions) TestbedOptions {
	if o.Racks == 0 {
		o.Racks = 4
	}
	if o.NodesPerRack == 0 {
		o.NodesPerRack = 4
	}
	if o.C == 0 {
		o.C = 4
	}
	if o.Stripes == 0 {
		o.Stripes = 6
	}
	return o.withDefaults()
}

// RunEncodeWindow measures how much the RapidRAID-style pipelined encode
// shrinks the encode window — the wall-clock span of the encoding job, during
// which stripes sit between replication and full parity protection — under
// increasing background cross-traffic: each cell runs the Gather arm, then
// the Chain arm. Everything else (geometry, code, shaping, seed) is held
// identical between the two runs, so the delta is the pipeline's alone.
func RunEncodeWindow(opts TestbedOptions) (*EncodeWindowResult, error) {
	opts = encodeWindowDefaults(opts)
	const n, k = 14, 12
	res := &EncodeWindowResult{}
	for _, frac := range []float64{0, 0.4, 0.8} {
		row := EncodeWindowRow{InjectedFrac: frac}
		for _, arm := range []EncodeArm{Gather, Chain} {
			st, _, err := encodeOnce(opts, "rr", n, k, arm, frac)
			if err != nil {
				return nil, err
			}
			if arm == Chain {
				row.PipelinedSeconds = st.Duration.Seconds()
				row.PipelinedCrossDownloads = st.CrossRackDownloads
			} else {
				row.GatherSeconds = st.Duration.Seconds()
				row.GatherCrossDownloads = st.CrossRackDownloads
			}
		}
		if row.GatherSeconds > 0 {
			row.Shrinkage = 1 - row.PipelinedSeconds/row.GatherSeconds
		}
		res.Rows = append(res.Rows, row)
	}

	t := &Table{
		ID:      "encodewindow",
		Caption: fmt.Sprintf("Encode-window shrinkage: gather vs pipelined encode, rr (%d,%d) under injected cross traffic", n, k),
		Headers: []string{"injected (frac of link)", "gather window s", "pipelined window s", "shrinkage", "gather cross-dl", "pipelined cross-dl"},
		Notes: []string{
			fmt.Sprintf("%d racks x %d nodes, %d-way replication, c=%d, %d stripes, %d B blocks, %.1f MB/s links",
				opts.Racks, opts.NodesPerRack, opts.Replicas, opts.C, opts.Stripes,
				opts.BlockSizeBytes, opts.BandwidthBytesPerSec/(1<<20)),
			"window = wall-clock of the encoding job; cross-dl in block-equivalents (pipelined: m per rack boundary)",
		},
	}
	for _, r := range res.Rows {
		t.AddRow(f2(r.InjectedFrac), f2(r.GatherSeconds), f2(r.PipelinedSeconds),
			fmt.Sprintf("%.1f%%", r.Shrinkage*100),
			fmt.Sprintf("%d", r.GatherCrossDownloads), fmt.Sprintf("%d", r.PipelinedCrossDownloads))
	}
	res.Summary = t
	return res, nil
}
