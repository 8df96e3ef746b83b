package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"ear/internal/events"
	"ear/internal/planes"
	"ear/internal/telemetry"
	"ear/internal/topology"
)

// observability is what the admin endpoint serves: the cluster's planes —
// event journal (/events), invariant auditor (/audit), fabric utilization
// sampler (/timeline), SLO tracker (/slo), node health monitor (/health),
// transition progress tracker (/progress), per-tenant accounting table
// (/tenants) and all of them at once (/debug/bundle) — plus the request
// tracer (/trace).
type observability struct {
	*planes.Set
	tracer *telemetry.Tracer
}

// handleEvents serves cursor reads over the journal. Query parameters:
// cursor (sequence number to read after, default 0), max (event cap,
// default 1000), and the filters type, subsystem, block, stripe, node and
// trace (hex trace ID, for following one request end to end). The response
// carries the events, the cursor for the next poll, and how many
// matching-eligible events were lost to ring wrap.
func (o *observability) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cursor, err := parseUint(q.Get("cursor"), 0)
	if err != nil {
		http.Error(w, "bad cursor: "+err.Error(), http.StatusBadRequest)
		return
	}
	max, err := parseUint(q.Get("max"), 1000)
	if err != nil {
		http.Error(w, "bad max: "+err.Error(), http.StatusBadRequest)
		return
	}
	f := events.Filter{
		Type:      events.Type(q.Get("type")),
		Subsystem: q.Get("subsystem"),
	}
	if v := q.Get("block"); v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad block: "+err.Error(), http.StatusBadRequest)
			return
		}
		b := topology.BlockID(id)
		f.Block = &b
	}
	if v := q.Get("stripe"); v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad stripe: "+err.Error(), http.StatusBadRequest)
			return
		}
		s := topology.StripeID(id)
		f.Stripe = &s
	}
	if v := q.Get("node"); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad node: "+err.Error(), http.StatusBadRequest)
			return
		}
		n := topology.NodeID(id)
		f.Node = &n
	}
	if v := q.Get("trace"); v != "" {
		id, err := strconv.ParseUint(v, 16, 64)
		if err != nil {
			http.Error(w, "bad trace (want hex): "+err.Error(), http.StatusBadRequest)
			return
		}
		f.Trace = id
	}
	evs, next, dropped := o.Journal.Since(cursor, int(max), f)
	writeJSON(w, map[string]any{
		"events":  evs,
		"next":    next,
		"dropped": dropped,
	})
}

// handleTrace exports the request tracer's span buffer in Chrome trace
// format (load in chrome://tracing or Perfetto). ?reset=1 drains the buffer
// after export so long-running daemons can be sampled in windows.
func (o *observability) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := o.tracer.WriteChromeTrace(w); err != nil {
		slog.Warn("trace write failed", "err", err)
		return
	}
	if r.URL.Query().Get("reset") == "1" {
		o.tracer.Reset()
	}
}

// view serves a report as JSON or, when the request says ?view=html, inside
// the endpoint's self-contained HTML document: the JSON-encoded report fills
// the page's single %s verb and is rendered client-side, with no external
// assets.
func view(page string, report func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rep := report()
		if r.URL.Query().Get("view") != "html" {
			writeJSON(w, rep)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		blob, err := json.Marshal(rep)
		if err == nil {
			_, err = fmt.Fprintf(w, page, blob)
		}
		if err != nil {
			slog.Warn("html write failed", "path", r.URL.Path, "err", err)
		}
	}
}

// parseUint parses a uint64 query value, empty meaning def.
func parseUint(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// writeJSON renders v as the response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		slog.Warn("json write failed", "err", err)
	}
}

// timelinePage is the self-contained /timeline?view=html document: the
// timeline JSON is embedded and rendered client-side onto one canvas strip
// per link, cross-rack vs intra-rack payload first — no external assets, so
// the page works from a file:// save or an air-gapped lab box.
const timelinePage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ear fabric timeline</title>
<style>
body { font: 13px/1.4 system-ui, sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin: 1.2em 0 .3em; }
.strip { margin-bottom: 2px; display: flex; align-items: center; }
.strip .name { width: 14em; text-align: right; padding-right: .8em; color: #555;
  white-space: nowrap; overflow: hidden; text-overflow: ellipsis; }
canvas { background: #fff; border: 1px solid #ddd; }
.legend { color: #777; margin: .5em 0 1em; }
</style></head><body>
<h1>Fabric utilization timeline</h1>
<div class="legend" id="meta"></div>
<div id="payload"></div>
<div id="links"></div>
<script>
const TL = %s;
const W = 720, H = 28;
function strip(parent, name, pts, maxV, color) {
  const row = document.createElement('div'); row.className = 'strip';
  const label = document.createElement('span'); label.className = 'name'; label.textContent = name;
  const cv = document.createElement('canvas'); cv.width = W; cv.height = H;
  row.appendChild(label); row.appendChild(cv); parent.appendChild(row);
  const g = cv.getContext('2d');
  if (!pts || !pts.length || !(TL.duration_seconds > 0)) return;
  g.fillStyle = color; g.strokeStyle = color;
  g.beginPath(); g.moveTo(0, H);
  for (const p of pts) {
    const x = p.t / TL.duration_seconds * W;
    const v = maxV > 0 ? Math.min(p.mbps / maxV, 1) : 0;
    g.lineTo(x, H - v * (H - 2));
  }
  g.lineTo(W, H); g.closePath(); g.globalAlpha = 0.35; g.fill();
  g.globalAlpha = 1; g.stroke();
}
function maxMBps(series) {
  let m = 0;
  for (const pts of series) for (const p of (pts || [])) m = Math.max(m, p.mbps);
  return m;
}
const meta = document.getElementById('meta');
meta.textContent = 'duration ' + (TL.duration_seconds || 0).toFixed(2) + ' s, sample interval ' +
  (TL.interval_seconds || 0).toFixed(3) + ' s, ' + ((TL.links || []).length) + ' links';
const payload = document.getElementById('payload');
const h2p = document.createElement('h2'); h2p.textContent = 'Payload throughput (MB/s)';
payload.appendChild(h2p);
const pMax = maxMBps([TL.cross_rack, TL.intra_rack]);
strip(payload, 'cross-rack (' + pMax.toFixed(1) + ' MB/s max)', TL.cross_rack, pMax, '#c0392b');
strip(payload, 'intra-rack', TL.intra_rack, pMax, '#2980b9');
const links = document.getElementById('links');
const h2l = document.createElement('h2'); h2l.textContent = 'Per-link throughput (MB/s, shared scale)';
links.appendChild(h2l);
const lMax = maxMBps((TL.links || []).map(l => l.points));
const colors = { 'node-up': '#27ae60', 'node-down': '#16a085', 'rack-up': '#8e44ad',
  'rack-down': '#9b59b6', 'disk': '#7f8c8d' };
for (const l of (TL.links || [])) {
  strip(links, l.name + ' [' + l.class + ']', l.points, lMax, colors[l.class] || '#34495e');
}
</script></body></html>
`

// sloPage is the self-contained /slo?view=html document: one row per
// objective with its windowed quantile estimate, burn rate and an error
// budget bar. No external assets.
const sloPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ear SLOs</title>
<style>
body { font: 13px/1.4 system-ui, sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; }
table { border-collapse: collapse; }
th, td { padding: .35em .8em; border-bottom: 1px solid #ddd; text-align: right; }
th { color: #555; } td.name { text-align: left; font-weight: 600; }
.bar { width: 10em; height: 10px; background: #eee; border-radius: 5px; overflow: hidden; }
.bar div { height: 100%%; }
.ok { color: #27ae60; } .bad { color: #c0392b; } .warm { color: #999; }
</style></head><body>
<h1>Service level objectives</h1>
<table><thead><tr>
<th style="text-align:left">objective</th><th>target</th><th>ops</th><th>slow</th>
<th>q estimate</th><th>burn rate</th><th>budget</th><th></th><th>status</th>
</tr></thead><tbody id="rows"></tbody></table>
<script>
const REP = %s;
const rows = document.getElementById('rows');
for (const s of (REP || [])) {
  const tr = document.createElement('tr');
  const budget = Math.max(0, Math.min(1, s.budget_remaining));
  const color = s.met ? '#27ae60' : '#c0392b';
  const status = !s.filled ? '<span class="warm">warming up</span>'
    : (s.met ? '<span class="ok">met</span>' : '<span class="bad">burning</span>');
  tr.innerHTML = '<td class="name">' + s.name + '</td>' +
    '<td>p' + (s.quantile * 100).toFixed(0) + ' &le; ' + s.threshold + 's</td>' +
    '<td>' + s.ops + '</td>' +
    '<td>' + s.slow + ' (' + (100 * s.slow_ratio).toFixed(2) + '%%)</td>' +
    '<td>' + s.quantile_estimate.toFixed(4) + 's</td>' +
    '<td>' + s.burn_rate.toFixed(2) + 'x</td>' +
    '<td>' + (100 * budget).toFixed(1) + '%%</td>' +
    '<td><div class="bar"><div style="width:' + (100 * budget) + '%%;background:' + color + '"></div></div></td>' +
    '<td>' + status + '</td>';
  rows.appendChild(tr);
}
</script></body></html>
`

// healthPage is the self-contained /health?view=html document: one row per
// node with its score bar and per-signal breakdown. No external assets.
const healthPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ear cluster health</title>
<style>
body { font: 13px/1.4 system-ui, sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; }
table { border-collapse: collapse; }
th, td { padding: .3em .8em; border-bottom: 1px solid #ddd; text-align: right; }
th { color: #555; } td.name { text-align: left; }
.bar { width: 10em; height: 10px; background: #eee; border-radius: 5px; overflow: hidden; }
.bar div { height: 100%%; }
.degraded { color: #c0392b; font-weight: 600; } .dead { color: #999; } .ok { color: #27ae60; }
</style></head><body>
<h1>Cluster health</h1>
<p id="summary"></p>
<table><thead><tr>
<th style="text-align:left">node</th><th>rack</th><th>score</th><th></th>
<th>heartbeat</th><th>hb ratio</th><th>op s/MB</th><th>op ratio</th>
<th>samples</th><th>failures</th><th>state</th>
</tr></thead><tbody id="rows"></tbody></table>
<script>
const REP = %s;
const nodes = REP.nodes || [];
const degraded = REP.degraded || [];
document.getElementById('summary').textContent =
  nodes.length + ' nodes, ' + degraded.length + ' degraded' +
  (degraded.length ? ' (' + degraded.join(', ') + ')' : '');
const rows = document.getElementById('rows');
for (const n of nodes) {
  const tr = document.createElement('tr');
  const score = Math.max(0, Math.min(100, n.score));
  const color = n.dead ? '#999' : (n.degraded ? '#c0392b' : (score < 75 ? '#f39c12' : '#27ae60'));
  const state = n.dead ? '<span class="dead">dead</span>'
    : (n.degraded ? '<span class="degraded">degraded</span>' : '<span class="ok">healthy</span>');
  tr.innerHTML = '<td class="name">node ' + n.node + '</td>' +
    '<td>' + n.rack + '</td>' +
    '<td>' + score.toFixed(1) + '</td>' +
    '<td><div class="bar"><div style="width:' + score + '%%;background:' + color + '"></div></div></td>' +
    '<td>' + (n.heartbeat / 1e6).toFixed(1) + 'ms</td>' +
    '<td>' + n.heartbeat_ratio.toFixed(2) + '</td>' +
    '<td>' + n.op_sec_per_mb.toFixed(3) + '</td>' +
    '<td>' + n.op_ratio.toFixed(2) + '</td>' +
    '<td>' + n.op_samples + '</td>' +
    '<td>' + n.failures.toFixed(2) + '</td>' +
    '<td>' + state + '</td>';
  rows.appendChild(tr);
}
</script></body></html>
`

// progressPage is the self-contained /progress?view=html document: the
// encode-backlog summary, a canvas progress curve and the durability
// exposure windows. No external assets.
const progressPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ear transition progress</title>
<style>
body { font: 13px/1.4 system-ui, sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin: 1.2em 0 .3em; }
table { border-collapse: collapse; }
th, td { padding: .3em .8em; border-bottom: 1px solid #ddd; text-align: right; }
th { color: #555; } td.name { text-align: left; }
.bar { width: 24em; height: 14px; background: #eee; border-radius: 7px; overflow: hidden; }
.bar div { height: 100%%; background: #27ae60; }
canvas { background: #fff; border: 1px solid #ddd; }
.legend { color: #777; margin: .5em 0 1em; }
.risk { color: #c0392b; font-weight: 600; } .clear { color: #27ae60; }
</style></head><body>
<h1>Replication &rarr; erasure-coding transition</h1>
<div class="legend" id="meta"></div>
<div class="bar"><div id="fill"></div></div>
<p id="stats"></p>
<h2>Progress curve</h2>
<canvas id="curve" width="720" height="160"></canvas>
<h2 id="risktitle">Durability exposure</h2>
<table><thead><tr>
<th style="text-align:left">invariant</th><th>stripe</th><th>block</th>
<th>opened seq</th><th>resolved seq</th><th>exposed</th>
</tr></thead><tbody id="rows"></tbody></table>
<script>
const REP = %s;
const frac = REP.fraction_encoded || 0;
document.getElementById('fill').style.width = (100 * frac) + '%%';
document.getElementById('meta').textContent = 'policy ' + REP.policy +
  ', ' + REP.encoded_stripes + '/' + REP.total_stripes + ' stripes encoded (' +
  (100 * frac).toFixed(1) + '%%), ' + REP.events + ' events folded' +
  (REP.recovering ? ' — rebuilding from recovered state' : '');
const eta = REP.eta_seconds;
document.getElementById('stats').textContent =
  'backlog ' + REP.backlog_stripes + ' stripes / ' + REP.backlog_bytes + ' bytes, rate ' +
  (REP.rate_bytes_per_sec || 0).toFixed(0) + ' B/s, ETA ' +
  (eta < 0 ? 'unknown' : eta.toFixed(1) + 's') + ', at risk now: ' + REP.blocks_at_risk;
const cv = document.getElementById('curve'), g = cv.getContext('2d');
const pts = REP.curve || [];
if (pts.length) {
  const tMax = Math.max(pts[pts.length - 1].t, 1e-9);
  g.strokeStyle = '#2980b9'; g.fillStyle = '#2980b9';
  g.beginPath(); g.moveTo(0, cv.height);
  for (const p of pts) {
    g.lineTo(p.t / tMax * cv.width, cv.height - p.fraction * (cv.height - 4));
  }
  g.globalAlpha = 0.25; g.lineTo(pts[pts.length - 1].t / tMax * cv.width, cv.height);
  g.closePath(); g.fill(); g.globalAlpha = 1; g.stroke();
}
const wins = REP.exposure_windows || [];
document.getElementById('risktitle').textContent = 'Durability exposure (' + wins.length +
  ' windows, ' + (REP.total_exposure_seconds || 0).toFixed(3) + 's total)';
const rows = document.getElementById('rows');
for (const v of wins) {
  const tr = document.createElement('tr');
  const open = !v.resolved_seq;
  tr.innerHTML = '<td class="name">' + v.invariant + '</td>' +
    '<td>' + v.stripe + '</td><td>' + v.block + '</td>' +
    '<td>' + v.opened_seq + '</td>' +
    '<td>' + (open ? '<span class="risk">open</span>' : v.resolved_seq) + '</td>' +
    '<td>' + v.seconds.toFixed(4) + 's</td>';
  rows.appendChild(tr);
}
if (!wins.length) {
  const tr = document.createElement('tr');
  tr.innerHTML = '<td class="name clear" colspan="6">no exposure windows</td>';
  rows.appendChild(tr);
}
</script></body></html>
`

// tenantsPage is the self-contained /tenants?view=html document: one block
// per tenant with its per-op table and fabric byte split. No external
// assets.
const tenantsPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ear tenants</title>
<style>
body { font: 13px/1.4 system-ui, sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin: 1.2em 0 .3em; }
table { border-collapse: collapse; margin-bottom: 1em; }
th, td { padding: .3em .8em; border-bottom: 1px solid #ddd; text-align: right; }
th { color: #555; } td.name { text-align: left; font-weight: 600; }
.legend { color: #777; margin: .5em 0 1em; }
</style></head><body>
<h1>Per-tenant resource accounting</h1>
<div class="legend" id="meta"></div>
<div id="tenants"></div>
<script>
const REP = %s;
document.getElementById('meta').textContent = 'fabric totals: ' +
  REP.cross_rack_bytes + ' B cross-rack, ' + REP.intra_rack_bytes + ' B intra-rack';
const root = document.getElementById('tenants');
for (const t of (REP.tenants || [])) {
  const h2 = document.createElement('h2');
  h2.textContent = t.tenant + ' — ' + t.cross_rack_bytes + ' B cross-rack, ' +
    t.intra_rack_bytes + ' B intra-rack';
  root.appendChild(h2);
  const tbl = document.createElement('table');
  tbl.innerHTML = '<thead><tr><th style="text-align:left">op</th><th>count</th>' +
    '<th>bytes</th><th>count/s</th><th>bytes/s</th></tr></thead>';
  const body = document.createElement('tbody');
  for (const op of (t.ops || [])) {
    const tr = document.createElement('tr');
    tr.innerHTML = '<td class="name">' + op.op + '</td>' +
      '<td>' + op.count + '</td><td>' + op.bytes + '</td>' +
      '<td>' + op.count_per_sec.toFixed(2) + '</td>' +
      '<td>' + op.bytes_per_sec.toFixed(0) + '</td>';
    body.appendChild(tr);
  }
  tbl.appendChild(body);
  root.appendChild(tbl);
}
</script></body></html>
`
