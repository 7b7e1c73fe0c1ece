package obs

import (
	"io"
	"net/http"
)

// handleDashboard serves the embedded live dashboard. The page is fully
// self-contained — inline CSS and vanilla JS, no external assets — so it
// works from an air-gapped benchmark host. It polls /progress and
// /metrics once a second and keeps the short history behind its
// sparklines and the per-interval worker deltas in the page itself, so
// the server holds no history for it.
func (p *Plane) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, dashboardHTML)
}

const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cncount dashboard</title>
<style>
  :root {
    --bg: #0f1419; --panel: #171e26; --line: #2a3440;
    --text: #d6dde5; --dim: #7b8794; --accent: #4fb3d9;
    --ok: #5cb85c; --warn: #e0a030; --bad: #d9534f;
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 1.25rem; background: var(--bg); color: var(--text);
    font: 14px/1.45 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
  }
  h1 { font-size: 1.1rem; margin: 0 0 .25rem; font-weight: 600; }
  h1 .scope { color: var(--accent); }
  .sub { color: var(--dim); margin-bottom: 1rem; }
  .badge {
    display: inline-block; padding: .05rem .5rem; border-radius: 3px;
    font-size: .8rem; vertical-align: middle; margin-left: .5rem;
  }
  .badge.active { background: #1d3a1d; color: var(--ok); }
  .badge.idle { background: #2a3440; color: var(--dim); }
  .badge.stalled { background: #3a1d1d; color: var(--bad); }
  .grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(240px, 1fr)); gap: .75rem; }
  .card {
    background: var(--panel); border: 1px solid var(--line);
    border-radius: 6px; padding: .6rem .75rem;
  }
  .card .label { color: var(--dim); font-size: .78rem; text-transform: uppercase; letter-spacing: .05em; }
  .card .value { font-size: 1.25rem; margin: .1rem 0 .3rem; }
  .card canvas { width: 100%; height: 42px; display: block; }
  #bar-track {
    height: 14px; background: var(--line); border-radius: 7px;
    overflow: hidden; margin: .5rem 0;
  }
  #bar-fill {
    height: 100%; width: 0; background: var(--accent);
    border-radius: 7px; transition: width .4s ease;
  }
  .kv { display: flex; gap: 1.5rem; flex-wrap: wrap; color: var(--dim); }
  .kv b { color: var(--text); font-weight: 600; }
  section { margin-bottom: 1.25rem; }
  #workers .row { display: flex; align-items: center; gap: .6rem; margin: .25rem 0; }
  #workers .wid { width: 3.5rem; color: var(--dim); }
  #workers .track {
    flex: 1; height: 10px; background: var(--line); border-radius: 5px;
    overflow: hidden; display: flex;
  }
  #workers .busy { background: var(--ok); height: 100%; }
  #workers .wait { background: var(--warn); height: 100%; }
  #workers .steal { background: var(--accent); height: 100%; }
  #workers .pct { width: 4.5rem; text-align: right; color: var(--dim); }
  #workers .stalled-flag { color: var(--bad); }
  .note { color: var(--dim); font-style: italic; }
  .legend span { margin-right: 1rem; color: var(--dim); font-size: .8rem; }
  .dot { display: inline-block; width: .6em; height: .6em; border-radius: 50%; margin-right: .3em; }
</style>
</head>
<body>
<h1>cncount <span class="scope" id="scope">—</span><span class="badge idle" id="badge">idle</span></h1>
<div class="sub">live run dashboard · polls /progress and /metrics</div>

<section id="progress">
  <div id="bar-track"><div id="bar-fill"></div></div>
  <div class="kv">
    <span><b id="pct">0%</b> done</span>
    <span><b id="units">0 / 0</b> units</span>
    <span><b id="rate">—</b> units/s</span>
    <span>elapsed <b id="elapsed">—</b></span>
    <span>eta <b id="eta">—</b></span>
  </div>
</section>

<section>
  <div class="grid" id="cards">
    <div class="card"><div class="label">edges / sec</div><div class="value" id="v-eps">—</div><canvas id="c-eps"></canvas></div>
    <div class="card"><div class="label">rss</div><div class="value" id="v-rss">—</div><canvas id="c-rss"></canvas></div>
    <div class="card"><div class="label">heap alloc</div><div class="value" id="v-heap">—</div><canvas id="c-heap"></canvas></div>
    <div class="card"><div class="label">goroutines</div><div class="value" id="v-gor">—</div><canvas id="c-gor"></canvas></div>
  </div>
</section>

<section id="workers-section">
  <div class="card">
    <div class="label">workers · last interval</div>
    <div class="legend">
      <span><span class="dot" style="background:var(--ok)"></span>busy</span>
      <span><span class="dot" style="background:var(--warn)"></span>wait</span>
      <span><span class="dot" style="background:var(--accent)"></span>steal</span>
    </div>
    <div id="workers"><div class="note">no region observed yet</div></div>
  </div>
</section>

<script>
"use strict";
const $ = id => document.getElementById(id);

// The page keeps its own short history: one point per poll per card.
const HISTORY = 120;
const hist = { eps: [], rss: [], heap: [], gor: [] };
// prev anchors the per-interval deltas: the previous /progress reading
// and when it arrived. The tallies it holds are cumulative since the
// region began, so the deltas restart whenever runs changes.
let prev = null;

function fmtDur(s) {
  if (!isFinite(s) || s <= 0) return "—";
  if (s < 60) return s.toFixed(1) + "s";
  const m = Math.floor(s / 60);
  return m + "m" + Math.round(s - m * 60) + "s";
}
function fmtNum(n) {
  if (!isFinite(n) || n === 0) return "0";
  const units = ["", "k", "M", "G", "T"];
  let i = 0;
  while (Math.abs(n) >= 1000 && i < units.length - 1) { n /= 1000; i++; }
  return (n >= 100 ? n.toFixed(0) : n.toFixed(1)) + units[i];
}
function fmtBytes(n) {
  const units = ["B", "KiB", "MiB", "GiB", "TiB"];
  let i = 0;
  while (n >= 1024 && i < units.length - 1) { n /= 1024; i++; }
  return (n >= 100 ? n.toFixed(0) : n.toFixed(1)) + " " + units[i];
}

function spark(canvas, values) {
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  if (w === 0 || h === 0) return;
  canvas.width = w * dpr; canvas.height = h * dpr;
  const g = canvas.getContext("2d");
  g.scale(dpr, dpr);
  g.clearRect(0, 0, w, h);
  if (values.length < 2) return;
  const max = Math.max(...values), min = Math.min(...values, 0);
  const span = max - min || 1;
  g.beginPath();
  values.forEach((v, i) => {
    const x = (i / (values.length - 1)) * (w - 2) + 1;
    const y = h - 2 - ((v - min) / span) * (h - 4);
    i === 0 ? g.moveTo(x, y) : g.lineTo(x, y);
  });
  g.strokeStyle = getComputedStyle(document.documentElement).getPropertyValue("--accent").trim();
  g.lineWidth = 1.5;
  g.stroke();
}

// gauges reads the unlabeled samples of a /metrics exposition.
function gauges(text) {
  const out = {};
  for (const line of text.split("\n")) {
    if (line === "" || line[0] === "#") continue;
    const sp = line.lastIndexOf(" ");
    const name = line.slice(0, sp);
    if (!name.includes("{")) out[name] = Number(line.slice(sp + 1));
  }
  return out;
}

function card(key, value, text) {
  const series = hist[key];
  series.push(value);
  if (series.length > HISTORY) series.shift();
  $("v-" + key).textContent = text;
  spark($("c-" + key), series);
}

function renderProgress(p) {
  $("scope").textContent = p.scope || "—";
  const badge = $("badge");
  if (p.stalled_workers > 0) { badge.textContent = "stalled"; badge.className = "badge stalled"; }
  else if (p.active) { badge.textContent = "running"; badge.className = "badge active"; }
  else { badge.textContent = p.runs > 0 ? "done" : "idle"; badge.className = "badge idle"; }
  $("bar-fill").style.width = (p.percent_done || 0) + "%";
  $("pct").textContent = (p.percent_done || 0).toFixed(1) + "%";
  $("units").textContent = fmtNum(p.done_units) + " / " + fmtNum(p.total_units);
  $("rate").textContent = fmtNum(p.units_per_sec);
  $("elapsed").textContent = fmtDur(p.elapsed_seconds);
  $("eta").textContent = p.active ? fmtDur(p.eta_seconds) : "—";
}

// renderWorkers draws each worker's busy/wait/steal share of the wall
// interval: since the previous poll within one region, or since the
// region began when base is null.
function renderWorkers(workers, base, intervalNanos) {
  if (workers.length === 0 || intervalNanos <= 0) return;
  const container = $("workers");
  container.innerHTML = "";
  for (const wk of workers) {
    const b = (base && base[wk.worker]) || { busy_nanos: 0, wait_nanos: 0, steal_nanos: 0 };
    const share = f => 100 * Math.max(wk[f] - b[f], 0) / intervalNanos;
    const busy = Math.min(100, share("busy_nanos"));
    const wait = Math.min(100 - busy, share("wait_nanos"));
    const steal = Math.min(100 - busy - wait, share("steal_nanos"));
    const row = document.createElement("div");
    row.className = "row";
    const flag = wk.stalled ? ' <span class="stalled-flag">stalled</span>' : "";
    row.innerHTML =
      '<span class="wid">w' + wk.worker + "</span>" +
      '<span class="track">' +
      '<span class="busy" style="width:' + busy + '%"></span>' +
      '<span class="wait" style="width:' + wait + '%"></span>' +
      '<span class="steal" style="width:' + steal + '%"></span>' +
      "</span>" +
      '<span class="pct">' + busy.toFixed(0) + "%" + flag + "</span>";
    container.appendChild(row);
  }
}

async function tick() {
  try {
    const [progRes, metricsRes] = await Promise.all([fetch("/progress"), fetch("/metrics")]);
    if (!progRes.ok || !metricsRes.ok) return;
    const p = await progRes.json();
    const m = gauges(await metricsRes.text());
    const now = performance.now();
    renderProgress(p);
    const same = prev !== null && prev.p.runs === p.runs;
    const dt = same ? (now - prev.at) / 1000 : p.elapsed_seconds;
    const eps = same && dt > 0 ? Math.max(p.done_units - prev.p.done_units, 0) / dt : p.units_per_sec || 0;
    card("eps", eps, fmtNum(eps));
    card("rss", m.cncount_rss_bytes || 0, fmtBytes(m.cncount_rss_bytes || 0));
    card("heap", m.cncount_heap_alloc_bytes || 0, fmtBytes(m.cncount_heap_alloc_bytes || 0));
    card("gor", m.cncount_goroutines || 0, String(m.cncount_goroutines || 0));
    renderWorkers(p.workers || [], same ? prev.p.workers : null, dt * 1e9);
    prev = { p: p, at: now };
  } catch (e) { /* transient poll failure: keep last render */ }
}
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
`
