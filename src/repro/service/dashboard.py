"""Static HTML dashboard served at the campaign service root.

One self-contained page, no build step and no external assets: the
browser polls the service's existing JSON endpoints (``GET /jobs`` for
the job table, ``GET /metrics`` for queue depth and telemetry counters)
every two seconds with ``fetch`` and re-renders the tables.  When the
telemetry snapshot carries ``inject.*`` counters, a dedicated
injection-replay panel surfaces the suffix-replay economics — warm-core
restore reuses, simulated cycles saved, scan-synthesized verdicts,
dead cycles jumped — ahead of the generic counter dump; its rows are
``repro trace summarize``'s
(:data:`repro.telemetry.report.REPLAY_ROWS`).  All rendering uses ``textContent``,
so job ids, campaign names, and error strings are displayed verbatim
without HTML injection.

The page is deliberately read-only — submission stays on ``POST /jobs``
(``repro submit``) so the dashboard adds zero new server-side state or
routes beyond serving this string.
"""

from __future__ import annotations

import json

from repro.telemetry.report import REPLAY_ROWS

_PAGE = """\
<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro campaign service</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         margin: 2rem; background: #111; color: #ddd; }
  h1 { font-size: 1.2rem; }
  h2 { font-size: 1rem; margin-top: 1.5rem; }
  table { border-collapse: collapse; margin-top: .5rem; }
  th, td { border: 1px solid #444; padding: .25rem .6rem;
           text-align: left; font-size: .85rem; }
  th { background: #222; }
  .state-done { color: #7c7; }
  .state-failed { color: #e77; }
  .state-running { color: #7ad; }
  #error { color: #e77; min-height: 1.2em; }
  small { color: #888; }
</style>
</head>
<body>
<h1>repro campaign service</h1>
<div id="error"></div>
<h2>jobs <small id="jobcount"></small></h2>
<table id="jobs">
  <thead><tr><th>job</th><th>campaign</th><th>state</th>
  <th>shards</th><th>error</th></tr></thead>
  <tbody></tbody>
</table>
<h2 id="replay-h" hidden>injection replay</h2>
<table id="replay" hidden><tbody></tbody></table>
<h2>metrics</h2>
<table id="metrics"><tbody></tbody></table>
<script>
"use strict";
const REPLAY_ROWS = __REPLAY_ROWS__;
function row(cells, cls) {
  const tr = document.createElement("tr");
  for (const text of cells) {
    const td = document.createElement("td");
    td.textContent = text === null || text === undefined ? "" : String(text);
    tr.appendChild(td);
  }
  if (cls) tr.className = cls;
  return tr;
}
function renderJobs(payload) {
  const body = document.querySelector("#jobs tbody");
  body.replaceChildren();
  const jobs = payload.jobs || [];
  document.getElementById("jobcount").textContent =
    "(" + jobs.length + ")";
  for (const j of jobs) {
    const p = j.progress || {};
    const shards = (p.done === undefined)
      ? "" : p.done + "/" + (p.total ?? "?");
    body.appendChild(row(
      [j.job, j.campaign, j.state, shards, j.error],
      "state-" + j.state));
  }
}
function flat(prefix, value, out) {
  if (value !== null && typeof value === "object"
      && !Array.isArray(value)) {
    for (const k of Object.keys(value).sort())
      flat(prefix ? prefix + "." + k : k, value[k], out);
  } else {
    out.push([prefix, JSON.stringify(value)]);
  }
}
function renderReplay(payload) {
  const counters = (payload.metrics || {}).counters || {};
  const body = document.querySelector("#replay tbody");
  body.replaceChildren();
  let any = false;
  for (const [key, label] of REPLAY_ROWS) {
    if (key in counters) {
      any = true;
      body.appendChild(row([label, counters[key].toLocaleString()]));
    }
  }
  document.getElementById("replay-h").hidden = !any;
  document.getElementById("replay").hidden = !any;
}
function renderMetrics(payload) {
  const body = document.querySelector("#metrics tbody");
  body.replaceChildren();
  const rows = [];
  flat("", payload, rows);
  for (const [name, value] of rows.slice(0, 80))
    body.appendChild(row([name, value]));
}
async function poll() {
  try {
    const [jobs, metrics] = await Promise.all([
      fetch("/jobs").then(r => r.json()),
      fetch("/metrics").then(r => r.json()),
    ]);
    renderJobs(jobs);
    renderReplay(metrics);
    renderMetrics(metrics);
    document.getElementById("error").textContent = "";
  } catch (exc) {
    document.getElementById("error").textContent =
      "poll failed: " + exc;
  }
}
poll();
setInterval(poll, 2000);
</script>
</body>
</html>
"""

DASHBOARD_HTML = _PAGE.replace("__REPLAY_ROWS__", json.dumps(REPLAY_ROWS))
