// grade10 embedded visual profiler. Vanilla JS, no external resources: the
// server pre-shapes everything it serves (/api/*, and the host's /alerts,
// /debug/overhead and /explain), this file only renders.
"use strict";

const $ = (id) => document.getElementById(id);

const state = {
  mode: "single",   // "single" | "fleet" (from /api/overview or fallback probe)
  run: "",          // selected run in fleet mode
  overview: null,
  es: null,          // EventSource
  refreshTimer: 0,
  alerts: false,     // /alerts mounted (server started with -alert-rules)
  overhead: false,   // /debug/overhead answered (overhead accounting wired)
};

function apiURL(path) {
  if (state.mode === "fleet" && state.run) {
    return path + (path.includes("?") ? "&" : "?") + "run=" + encodeURIComponent(state.run);
  }
  return path;
}

async function getJSON(url) {
  const resp = await fetch(url);
  if (!resp.ok) throw new Error(url + ": " + resp.status + " " + (await resp.text()).trim());
  return resp.json();
}

function fmt(x, digits = 3) {
  if (x === undefined || x === null) return "–";
  if (Math.abs(x) >= 1000) return x.toFixed(0);
  return x.toFixed(digits);
}

function el(tag, cls, text) {
  const e = document.createElement(tag);
  if (cls) e.className = cls;
  if (text !== undefined) e.textContent = text;
  return e;
}

// Stable color per phase type path, derived from a string hash.
function typeColor(tp) {
  let h = 0;
  for (let i = 0; i < tp.length; i++) h = (h * 31 + tp.charCodeAt(i)) >>> 0;
  return `hsl(${h % 360} 55% 45%)`;
}

function heatColor(share) {
  // 0 → panel, 1 → hot orange-red.
  const s = Math.max(0, Math.min(1, share));
  return `hsl(${30 - 20 * s} ${Math.round(80 * s)}% ${Math.round(16 + 30 * s)}%)`;
}

function machineLabel(m) { return m === -1 ? "global" : "m" + m; }

// ---------- overview ----------

function renderOverview(ov) {
  state.overview = ov;
  const st = $("status");
  if (ov.finalized) {
    st.textContent = "finalized (exact)";
    st.className = "status final";
  } else {
    st.textContent = "live @ " + fmt(ov.watermark_seconds, 2) + "s (coverage " + fmt(ov.coverage, 2) + ")";
    st.className = "status live";
  }
  const stats = $("stats");
  stats.innerHTML = "";
  const kv = (k, v) => {
    const d = el("span", "kv");
    d.append(el("span", "k", k + " "), el("b", "", String(v)));
    stats.append(d);
  };
  kv("mode", ov.mode + (ov.run ? ":" + ov.run : ""));
  kv("machines", ov.machines.filter((m) => m >= 0).length);
  kv("resources", ov.resources.join(","));
  kv("events", ov.stats.events);
  kv("windows", ov.stats.windows_flushed);
  kv("coverage", fmt(ov.coverage, 3));
  kv("lag", fmt(ov.lag_seconds, 2) + "s");
  $("explain-hint").textContent = ov.explain
    ? "click a heatmap cell or timeline span to trace where its number came from."
    : "explain answers once the run is finalized.";

  const bt = $("bottlenecks");
  bt.innerHTML = "";
  bt.className = "rowlist";
  for (const b of ov.bottlenecks.slice(0, 12)) {
    const d = el("div");
    d.append(el("span", "k", b.kind + " " + b.resource + " "),
      el("span", "", b.type_path + " " + fmt(b.seconds, 2) + "s"));
    bt.append(d);
  }
  if (!ov.bottlenecks.length) bt.append(el("div", "k", "none detected"));

  const pt = $("phase-types");
  pt.innerHTML = "";
  pt.className = "rowlist";
  for (const p of ov.phase_types.slice(0, 14)) {
    const d = el("div");
    d.append(el("span", "k", p.count + "× "),
      el("span", "", p.type_path + " " + fmt(p.total_seconds, 2) + "s"));
    pt.append(d);
  }
}

// ---------- heatmap ----------

function renderHeatmap(hm) {
  $("heatmap-source").textContent = hm.source === "final" ? "(exact final profile)" : "(streamed windows)";
  const root = $("heatmap");
  root.innerHTML = "";
  if (!hm.rows.length) { root.append(el("p", "hint", "no attributed consumption yet")); return; }

  const cols = [];
  for (const m of hm.machines) for (const r of hm.resources) cols.push({ m, r });

  const table = el("table", "heat");
  const head = el("tr");
  head.append(el("th", "", "phase type"));
  for (const c of cols) head.append(el("th", "", machineLabel(c.m) + " " + c.r));
  table.append(head);

  for (const row of hm.rows) {
    const tr = el("tr", row.leaf ? "" : "agg");
    const name = " ".repeat(row.depth * 2) + row.type_path.split("/").pop() +
      (row.leaf ? "" : "/");
    const th = el("td", "rowhead", name);
    th.title = row.type_path + " — " + fmt(row.total_unit_seconds) + " unit·s total";
    tr.append(th);
    const byCol = new Map(row.cells.map((c) => [c.machine + "|" + c.resource, c]));
    for (const c of cols) {
      const cell = byCol.get(c.m + "|" + c.r);
      const td = el("td", "cell", cell ? fmt(cell.unit_seconds, 2) : "");
      if (cell) {
        td.style.background = heatColor(cell.share);
        td.title = row.type_path + " @ " + machineLabel(c.m) + " " + c.r +
          "\n" + fmt(cell.unit_seconds) + " unit·s (" + (cell.share * 100).toFixed(1) + "% of column)";
        if (cell.query) td.onclick = () => explain(cell.query);
      }
      tr.append(td);
    }
    table.append(tr);
  }
  root.append(table);
}

// ---------- timeline ----------

function renderTimeline(tl) {
  $("timeline-source").textContent = tl.source === "final"
    ? "(exact phase tree)" : "(window utilization — full tree after finalize)";
  const root = $("timeline");
  root.innerHTML = "";
  const t0 = tl.start_seconds, span = Math.max(tl.end_seconds - t0, 1e-9);
  const pos = (s, e) => {
    const left = ((s - t0) / span) * 100;
    const width = Math.max(((e - s) / span) * 100, 0.15);
    return `left:${left}%;width:${width}%`;
  };
  for (const lane of tl.lanes) {
    // Final mode nests by depth: one track per depth level present.
    const depths = new Set((lane.spans || []).map((s) => s.depth));
    const levels = depths.size ? [...depths].sort((a, b) => a - b) : [0];
    for (const depth of levels) {
      const row = el("div", "lane");
      row.append(el("span", "label", depth === levels[0] ? machineLabel(lane.machine) : ""));
      const track = el("div", "track");
      for (const s of (lane.spans || []).filter((s) => s.depth === depth)) {
        const d = el("div", "span");
        d.style.cssText = pos(s.start_seconds, s.end_seconds) +
          `;background:${typeColor(s.type_path)}`;
        d.title = s.path + "\n" + fmt(s.start_seconds) + "s → " + fmt(s.end_seconds) + "s";
        if (s.query) d.onclick = () => explain(s.query);
        track.append(d);
      }
      if (depth === levels[levels.length - 1]) {
        for (const b of lane.blocked || []) {
          const d = el("div", "blk");
          d.style.cssText = pos(b.start_seconds, b.end_seconds);
          d.title = "blocked on " + b.resource + ": " + b.path;
          track.append(d);
        }
      }
      if (depth === levels[0]) {
        for (const seg of lane.segments || []) {
          const d = el("div", "seg");
          d.style.cssText = pos(seg.start_seconds, seg.end_seconds) +
            `;opacity:${0.15 + 0.85 * Math.min(seg.utilization, 1)}`;
          d.title = seg.resource + " util " + fmt(seg.utilization, 2) +
            " (window " + seg.window_index + ")";
          track.append(d);
        }
        for (const mk of lane.marks || []) {
          const d = el("div", "mark");
          d.style.cssText = pos(mk.start_seconds, mk.end_seconds);
          d.title = mk.kind + " " + mk.resource + " " + mk.type_path + " " + fmt(mk.seconds, 2) + "s";
          track.append(d);
        }
      }
      row.append(track);
      root.append(row);
    }
  }
  if (!tl.lanes.length) root.append(el("p", "hint", "no flushed windows yet"));
}

// ---------- comms ----------

function renderComms(cm) {
  const root = $("comms");
  root.innerHTML = "";
  if (!cm.machines.length) { root.append(el("p", "hint", "no network attribution yet")); return; }
  let max = 0;
  for (const row of cm.matrix) for (const v of row) max = Math.max(max, v);
  const table = el("table", "comms");
  const head = el("tr");
  head.append(el("th", "", "from \\ to"));
  for (const m of cm.machines) head.append(el("th", "", machineLabel(m)));
  head.append(el("th", "", "out Σ"));
  table.append(head);
  cm.machines.forEach((from, i) => {
    const tr = el("tr");
    tr.append(el("th", "", machineLabel(from)));
    cm.machines.forEach((_, j) => {
      const v = cm.matrix[i][j];
      const td = el("td", "", i === j ? "·" : fmt(v, 2));
      if (max > 0 && i !== j) td.style.background = heatColor(v / max);
      tr.append(td);
    });
    tr.append(el("td", "", fmt(cm.out_unit_seconds[i], 2)));
    table.append(tr);
  });
  root.append(table);
}

// ---------- alert banner ----------

// renderAlerts paints the banner from the /alerts lifecycle snapshot:
// firing first (red), then pending (amber), then recently resolved (dim).
// Each chip click-throughs to the explain query evidencing the alert.
function renderAlerts(snap) {
  const banner = $("alert-banner");
  const insts = (snap.instances || []);
  if (!insts.length) { banner.className = "hidden"; banner.innerHTML = ""; return; }
  banner.innerHTML = "";
  banner.className = "alert-banner" + (snap.firing ? " has-firing" : "");
  const head = el("span", "alert-head",
    snap.firing ? snap.firing + " firing" : (snap.pending ? snap.pending + " pending" : "resolved"));
  banner.append(head);
  for (const a of insts.slice(0, 8)) {
    const chip = el("span", "alert-chip " + a.state, a.rule);
    chip.append(el("small", "", " " + a.severity +
      (a.run ? " · " + a.run : "") +
      " · " + fmt(a.value, 2) + " vs " + fmt(a.threshold, 2)));
    chip.title = a.expr + (a.explain_query ? "\nclick: explain " + a.explain_query : "");
    if (a.explain_query) chip.onclick = () => explain(a.explain_query);
    banner.append(chip);
  }
  if (insts.length > 8) banner.append(el("span", "hint", "+" + (insts.length - 8) + " more"));
}

async function refreshAlerts() {
  if (!state.alerts) return;
  try {
    renderAlerts(await getJSON("/alerts"));
  } catch { /* transient: keep the last banner */ }
}

async function setupAlerts() {
  // /alerts only exists when the server was started with -alert-rules.
  try {
    const snap = await getJSON("/alerts");
    state.alerts = true;
    renderAlerts(snap);
  } catch { state.alerts = false; }
}

// ---------- framework overhead panel ----------

function fmtBytes(n) {
  if (n === undefined || n === null) return "–";
  if (n >= 1 << 30) return (n / (1 << 30)).toFixed(2) + " GiB";
  if (n >= 1 << 20) return (n / (1 << 20)).toFixed(2) + " MiB";
  if (n >= 1 << 10) return (n / (1 << 10)).toFixed(1) + " KiB";
  return n + " B";
}

// renderOverhead lists the most expensive runs: what grade10 itself spent
// characterizing each one (wall seconds, allocation, ingest volume).
function renderOverhead(data) {
  const div = $("overhead");
  div.innerHTML = "";
  const runs = (data.runs || []).slice(0, 10);
  if (!runs.length) { div.append(el("p", "hint", "no runs accounted yet.")); return; }
  for (const r of runs) {
    const row = el("div", "overhead-row");
    row.append(el("strong", "", r.run || "(this run)"));
    row.append(el("small", "",
      " wall " + fmt(r.wall_seconds, 2) + "s" +
      " · alloc " + fmtBytes(r.alloc_bytes) +
      " · ingest " + fmtBytes(r.ingest_bytes) +
      " · " + (r.windows || 0) + " windows"));
    div.append(row);
  }
  if ((data.runs || []).length > 10) {
    div.append(el("p", "hint", "+" + (data.runs.length - 10) + " more at /debug/overhead"));
  }
}

async function refreshOverhead() {
  if (!state.overhead) return;
  try {
    renderOverhead(await getJSON("/debug/overhead"));
  } catch { /* transient: keep the last panel */ }
}

async function setupOverhead() {
  // /debug/overhead answers when the host server wired overhead accounting.
  try {
    const data = await getJSON("/debug/overhead");
    state.overhead = true;
    $("overhead-sec").classList.remove("hidden");
    renderOverhead(data);
  } catch { state.overhead = false; }
}

// ---------- explain click-through ----------

async function explain(query) {
  const out = $("explain-out");
  out.textContent = "q: " + query + "\n…";
  try {
    const resp = await fetch(apiURL("/explain?format=text&q=" + encodeURIComponent(query)));
    const text = await resp.text();
    out.textContent = "q: " + query + "\n\n" + text;
  } catch (err) {
    out.textContent = "q: " + query + "\nexplain failed: " + err.message;
  }
}

// ---------- diff view ----------

async function setupDiff() {
  const sec = $("diff-sec"), controls = $("diff-controls");
  let metas = [];
  try {
    if (state.mode === "fleet") {
      const snap = await getJSON("/fleet/runs");
      metas = (snap.runs || []).filter((r) => r.archive_id).map((r) => ({ id: r.archive_id, label: r.name }));
    } else {
      const rr = await getJSON("/runs");
      metas = (rr.runs || []).map((m) => ({ id: m.id, label: (m.job || m.id) + " " + m.id.slice(0, 8) }));
    }
  } catch { return; } // no archive mounted: keep the section hidden
  if (metas.length < 2) return;
  sec.classList.remove("hidden");
  const sel = (id) => {
    const s = el("select");
    s.id = id;
    for (const m of metas) {
      const o = el("option", "", m.label);
      o.value = m.id;
      s.append(o);
    }
    return s;
  };
  const a = sel("diff-a"), b = sel("diff-b");
  b.selectedIndex = Math.min(1, metas.length - 1);
  const go = el("button", "", "diff");
  go.onclick = async () => {
    const out = $("diff-out");
    out.textContent = "…";
    try {
      const resp = await fetch(`/diff?format=text&a=${encodeURIComponent(a.value)}&b=${encodeURIComponent(b.value)}`);
      out.textContent = await resp.text();
    } catch (err) { out.textContent = "diff failed: " + err.message; }
  };
  controls.innerHTML = "";
  controls.append("a: ", a, " b: ", b, " ", go);
}

// ---------- refresh loop ----------

async function refreshAll() {
  try {
    const [ov, hm, tl, cm] = await Promise.all([
      getJSON(apiURL("/api/overview")),
      getJSON(apiURL("/api/heatmap")),
      getJSON(apiURL("/api/timeline")),
      getJSON(apiURL("/api/comms")),
    ]);
    renderOverview(ov);
    renderHeatmap(hm);
    renderTimeline(tl);
    renderComms(cm);
    return ov;
  } catch (err) {
    $("status").textContent = err.message;
    $("status").className = "status";
    return null;
  }
}

function scheduleRefresh(delay) {
  clearTimeout(state.refreshTimer);
  state.refreshTimer = setTimeout(refreshAll, delay);
}

function connectSSE() {
  if (state.es || !window.EventSource) return;
  const es = new EventSource("/api/events");
  state.es = es;
  // Coalesce: window flushes can be rapid; re-render at most every 500ms.
  es.addEventListener("window", () => { scheduleRefresh(500); refreshOverhead(); });
  es.addEventListener("final", () => { scheduleRefresh(100); refreshOverhead(); });
  es.addEventListener("alert", () => refreshAlerts());
  es.onerror = () => { es.close(); state.es = null; };
}

async function setupFleet() {
  // Fleet mode: the resolver answers 400 without ?run= (no pinned run), so
  // the page picks a run from /fleet/runs. A pinned run answers 200, or 503
  // while it waits for run.json.
  try {
    const probe = await fetch("/api/overview");
    if (probe.status !== 400) return;
    const snap = await getJSON("/fleet/runs");
    state.mode = "fleet";
    const wrap = $("run-picker-wrap"), picker = $("run-picker");
    wrap.classList.remove("hidden");
    picker.innerHTML = "";
    const runs = snap.runs || [];
    for (const r of runs) {
      const o = el("option", "", r.name + " (" + r.status + ")");
      o.value = r.name;
      o.disabled = r.status !== "active" && r.status !== "queued";
      picker.append(o);
    }
    const active = runs.find((r) => r.status === "active");
    if (active) { state.run = active.name; picker.value = active.name; }
    picker.onchange = () => { state.run = picker.value; refreshAll(); };
  } catch { state.mode = "single"; }
}

async function main() {
  await setupFleet();
  const ov = await refreshAll();
  await setupDiff();
  await setupAlerts();
  await setupOverhead();
  if (ov && ov.sse && !ov.finalized) connectSSE();
  if (ov && !ov.finalized && (!ov.sse || state.mode === "fleet")) {
    // No push channel: poll until the run settles.
    const tick = async () => {
      const cur = await refreshAll();
      await refreshAlerts();
      await refreshOverhead();
      if (!cur || !cur.finalized) state.refreshTimer = setTimeout(tick, 2000);
    };
    state.refreshTimer = setTimeout(tick, 2000);
  }
}

main();
