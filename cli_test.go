package grade10_test

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// computeCPUQuery asks for the compute threads' CPU attribution.
const computeCPUQuery = "phase=/pagerank/execute/superstep/worker/compute/thread resource=cpu"

// TestCLIPipeline exercises the full file-based pipeline of the paper's
// Figure 1 through the real binaries: gengraph → runsim → grade10, plus the
// model dump/load round trip. It is the integration test for the cmd/ layer.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	for _, tool := range []string{"gengraph", "runsim", "grade10", "infer", "serve"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	graphFile := filepath.Join(dir, "g.el")
	out := run("gengraph", "-type", "rmat", "-scale", "10", "-edgefactor", "8",
		"-seed", "3", "-out", graphFile)
	if !strings.Contains(out, "vertices") {
		t.Fatalf("gengraph output: %s", out)
	}
	if _, err := os.Stat(graphFile); err != nil {
		t.Fatal(err)
	}

	runDir := filepath.Join(dir, "run")
	out = run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-graph", graphFile, "-workers", "2", "-threads", "4", "-out", runDir)
	if !strings.Contains(out, "makespan") {
		t.Fatalf("runsim output: %s", out)
	}
	for _, f := range []string{"run.json", "execution.log", "monitoring.csv"} {
		if _, err := os.Stat(filepath.Join(runDir, f)); err != nil {
			t.Fatalf("run dir missing %s: %v", f, err)
		}
	}

	modelsFile := filepath.Join(dir, "models.json")
	report := run("grade10", "-run", runDir, "-dump-models", modelsFile)
	for _, want := range []string{
		"execution span:", "PHASE TYPE", "bottlenecks",
		"performance issues", "replayed critical path",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("grade10 report missing %q:\n%s", want, report)
		}
	}
	if _, err := os.Stat(modelsFile); err != nil {
		t.Fatal(err)
	}

	// Re-analysis with the dumped models matches the built-in analysis
	// (ignoring stderr diagnostics like "grade10: wrote ..." and the
	// wall-clock decode-throughput footer line, which is host-dependent).
	stripDiag := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "grade10: ") || strings.HasPrefix(line, "  decoded ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	// stripFooter additionally drops the parse-stats footer, which names the
	// input format — the only line allowed to differ between a text and a
	// binary ingest of the same run.
	stripFooter := func(s string) string {
		var keep []string
		for _, line := range strings.Split(stripDiag(s), "\n") {
			if strings.HasPrefix(line, "log parse: ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	report2 := run("grade10", "-run", runDir, "-models", modelsFile)
	if stripDiag(report2) != stripDiag(report) {
		t.Fatal("analysis with dumped models differs from built-ins")
	}

	// Serial and parallel analysis produce byte-identical reports: the
	// worker-pool fan-out merges in deterministic order.
	serialRep := run("grade10", "-run", runDir, "-parallelism", "1")
	parallelRep := run("grade10", "-run", runDir, "-parallelism", "8")
	if stripDiag(serialRep) != stripDiag(parallelRep) {
		t.Fatal("-parallelism 8 report differs from -parallelism 1")
	}
	if stripDiag(serialRep) != stripDiag(report) {
		t.Fatal("-parallelism 1 report differs from the default analysis")
	}

	// Untuned analysis differs (fewer blocking events, no Exact rules).
	untuned := run("grade10", "-run", runDir, "-untuned")
	if untuned == report {
		t.Fatal("untuned analysis identical to tuned")
	}

	// Binary enginelog: converting the run directory, analyzing the binary
	// copy, and converting back must (a) produce the identical report modulo
	// the input-format footer and (b) reproduce the original text log byte
	// for byte.
	binDir := filepath.Join(dir, "run-bin")
	run("grade10", "-convert", runDir, "-o", binDir)
	rawBin, err := os.ReadFile(filepath.Join(binDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rawBin), "G10B") {
		t.Fatalf("converted execution.log lacks binary magic: %.8q", rawBin)
	}
	binRep := run("grade10", "-run", binDir)
	if !strings.Contains(binRep, "log parse: binary format") {
		t.Fatalf("binary run footer missing format:\n%s", binRep)
	}
	if !strings.Contains(report, "log parse: text format") {
		t.Fatalf("text run footer missing format:\n%s", report)
	}
	if stripFooter(binRep) != stripFooter(report) {
		t.Fatal("binary-ingested report differs from text-ingested report")
	}
	backDir := filepath.Join(dir, "run-back")
	run("grade10", "-convert", binDir, "-o", backDir)
	origLog, err := os.ReadFile(filepath.Join(runDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	backLog, err := os.ReadFile(filepath.Join(backDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(origLog) != string(backLog) {
		t.Fatal("text → binary → text round trip not byte-identical")
	}

	// runsim -binary-log writes the binary format directly; the deterministic
	// simulation reproduces the same run, so the report matches too.
	blDir := filepath.Join(dir, "run-binarylog")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-graph", graphFile, "-workers", "2", "-threads", "4", "-binary-log", "-out", blDir)
	rawBL, err := os.ReadFile(filepath.Join(blDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rawBL), "G10B") {
		t.Fatal("runsim -binary-log did not write binary execution.log")
	}
	if stripFooter(run("grade10", "-run", blDir)) != stripFooter(report) {
		t.Fatal("-binary-log run report differs from text run report")
	}

	// Rule inference produces a models file the analyzer accepts.
	inferredFile := filepath.Join(dir, "inferred.json")
	fitOut := run("infer", "-run", runDir, "-out", inferredFile)
	if !strings.Contains(fitOut, "INFERRED DEMAND") {
		t.Fatalf("infer output: %s", fitOut)
	}
	run("grade10", "-run", runDir, "-models", inferredFile)

	// PowerGraph path and CSV export work too.
	pgDir := filepath.Join(dir, "pgrun")
	run("runsim", "-engine", "powergraph", "-algorithm", "cdlp",
		"-dataset", "datagen", "-workers", "2", "-threads", "4", "-bug", "-out", pgDir)
	csvFile := filepath.Join(dir, "consumption.csv")
	run("grade10", "-run", pgDir, "-csv", csvFile)
	data, err := os.ReadFile(csvFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "slice,start_ns,") {
		t.Fatalf("csv header: %.60s", data)
	}

	// Archive + diff: run the same compute-heavy workload twice — once at the
	// engine's default background noise, once with heavy injected CPU noise
	// (cluster.Noise via -noise) — archive both analyses, and the diff must
	// flag the regression and localize it to the compute leaf × cpu. The
	// built-in rmat dataset with default threads keeps compute a large enough
	// share of the makespan that CPU contention moves the verdict.
	diffBaseDir := filepath.Join(dir, "run-diffbase")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-workers", "2", "-out", diffBaseDir)
	noisyDir := filepath.Join(dir, "run-noisy")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-workers", "2", "-noise", "7.5", "-out", noisyDir)
	storeDir := filepath.Join(dir, "profiles")
	archOut := run("grade10", "-run", diffBaseDir, "-store", storeDir, "-run-label", "baseline")
	if !strings.Contains(archOut, "archived run ") {
		t.Fatalf("no archive confirmation:\n%s", archOut)
	}
	run("grade10", "-run", noisyDir, "-store", storeDir, "-run-label", "noisy")

	idOf := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "archived run ") {
				return strings.Fields(line)[2]
			}
		}
		t.Fatalf("no archived run line in:\n%s", out)
		return ""
	}
	baseID := idOf(archOut)
	// Re-archiving the same run is idempotent: same content ID, no new entry.
	noisyID := idOf(run("grade10", "-run", noisyDir, "-store", storeDir, "-run-label", "noisy"))

	deltaFile := filepath.Join(dir, "delta.json")
	diffText := run("grade10", "-store", storeDir, "-diff-out", deltaFile,
		"-diff", baseID, noisyID)
	for _, want := range []string{
		"verdict: REGRESSED",
		"top regression: ", "/compute/thread × cpu",
	} {
		if !strings.Contains(diffText, want) {
			t.Fatalf("diff text missing %q:\n%s", want, diffText)
		}
	}
	delta, err := os.ReadFile(deltaFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"verdict": "regressed"`, `"resource": "cpu"`, "/compute/thread",
	} {
		if !strings.Contains(string(delta), want) {
			t.Fatalf("delta JSON missing %q", want)
		}
	}

	// Diff output is byte-identical regardless of prefix resolution, and
	// -fail-on-regress flips the exit status to 3.
	diffText2 := run("grade10", "-store", storeDir, "-diff", baseID[:6], noisyID[:6])
	if stripDiag(diffText2) != stripDiag(diffText) {
		t.Fatal("diff by prefix differs from diff by full ID")
	}
	cmd := exec.Command(bin("grade10"), "-store", storeDir, "-fail-on-regress",
		"-diff", baseID, noisyID)
	if err := cmd.Run(); err == nil {
		t.Fatal("-fail-on-regress exited 0 on a regression")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("-fail-on-regress exit: %v, want status 3", err)
	}

	// Alert gate: baselines learned from an archived quiet run, a much
	// noisier re-run fires the compute regression rule, and the CLI exits 4.
	rulesFile := filepath.Join(dir, "alerts.rules")
	if err := os.WriteFile(rulesFile, []byte(
		"alert compute-regressed severity critical when phase=/pagerank/execute/superstep/worker/compute/thread regressed > 10% vs baseline\n"+
			"alert parse-degraded severity critical when parse_errors > 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	noisierDir := filepath.Join(dir, "run-noisier")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-workers", "2", "-noise", "15", "-out", noisierDir)
	alertStore := filepath.Join(dir, "alert-profiles")
	run("grade10", "-run", diffBaseDir, "-store", alertStore, "-run-label", "baseline")
	alertsFile := filepath.Join(dir, "alerts.json")
	cmd = exec.Command(bin("grade10"), "-run", noisierDir, "-store", alertStore, "-run-label", "noisy",
		"-alert-rules", rulesFile, "-alert-out", alertsFile)
	alertReport, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 4 {
		t.Fatalf("-alert-rules exit: %v, want status 4\n%s", err, alertReport)
	}
	if !strings.Contains(string(alertReport), "compute-regressed") {
		t.Fatalf("alert report does not name the firing rule:\n%s", alertReport)
	}
	var alerts struct {
		Firing       int `json:"firing"`
		BaselineRuns int `json:"baseline_runs"`
	}
	readJSON(t, alertsFile, &alerts)
	if alerts.Firing != 1 || alerts.BaselineRuns != 1 {
		t.Fatalf("alerts.json: firing %d from %d baseline runs, want 1 and 1", alerts.Firing, alerts.BaselineRuns)
	}

	// Explain: the derivation chain for the compute threads' CPU is
	// non-empty and sums to the profile's own attributed value.
	q := computeCPUQuery
	if text := run("grade10", "-run", runDir, "-explain", q); !strings.Contains(text, "chain sum:") {
		t.Fatalf("explain text has no chain sum:\n%s", text)
	}
	var deriv struct {
		Instances []struct {
			Phases []struct {
				Cells []json.RawMessage `json:"cells"`
			} `json:"phases"`
		} `json:"instances"`
		Attributed float64 `json:"attributed_unit_seconds"`
		Profile    float64 `json:"profile_unit_seconds"`
	}
	if err := json.Unmarshal([]byte(stripDiag(run("grade10", "-run", runDir, "-explain", q, "-format", "json"))), &deriv); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, in := range deriv.Instances {
		for _, ph := range in.Phases {
			cells += len(ph.Cells)
		}
	}
	if cells == 0 || deriv.Attributed <= 0 || math.Abs(deriv.Attributed-deriv.Profile) > 1e-6*math.Max(1, deriv.Profile) {
		t.Fatalf("explain: %d cells, chain %g vs profile %g", cells, deriv.Attributed, deriv.Profile)
	}

	// Trace export: both the simulator's and the analyzer's self-trace are
	// Chrome trace-event documents with duration slices (Perfetto-loadable).
	simTrace, anaTrace := filepath.Join(dir, "runsim-trace.json"), filepath.Join(dir, "grade10-trace.json")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank", "-graph", graphFile,
		"-workers", "2", "-threads", "4", "-out", filepath.Join(dir, "run-traced"), "-trace", simTrace)
	run("grade10", "-run", runDir, "-trace", anaTrace)
	for _, path := range []string{simTrace, anaTrace} {
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		readJSON(t, path, &doc)
		phases := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			phases[ev.Ph] = true
		}
		if len(doc.TraceEvents) == 0 || !phases["B"] || !phases["E"] {
			t.Fatalf("%s: %d events without B/E duration slices", path, len(doc.TraceEvents))
		}
	}

	checkServe(t, bin("serve"), bin("grade10"), runDir)
	checkRunsimServe(t, bin("runsim"), bin("grade10"), graphFile)
}

// batchReport is grade10 -run's report on runDir split from its trailing
// "log parse: ..." footer, which the /report body does not carry.
func batchReport(t *testing.T, grade10Bin, runDir string) (report, footer string) {
	t.Helper()
	out, err := exec.Command(grade10Bin, "-run", runDir).Output()
	if err != nil {
		t.Fatal(err)
	}
	i := strings.LastIndex(string(out), "\nlog parse: ")
	if i < 0 {
		t.Fatalf("grade10 -run %s printed no parse footer", runDir)
	}
	return string(out[:i]), string(out[i:])
}

// checkServe drives the real serve binary over a runsim-written directory:
// how its flags map onto the service is what these cases pin.
func checkServe(t *testing.T, serveBin, grade10Bin, runDir string) {
	want, _ := batchReport(t, grade10Bin, runDir)

	// -run: /report converges to the batch text and /healthz answers 200.
	base := startServe(t, serveBin, "-run", runDir, "-addr", "127.0.0.1:0", "-idle", "50ms")
	report := waitHTTP(t, base+"/report", func(code int, _ string) bool { return code == http.StatusOK })
	if report != want {
		t.Fatalf("serve -run /report differs from grade10 -run:\n%s", report)
	}
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", code, body)
	}

	// -run -bounded: no exact report once the run finishes.
	base = startServe(t, serveBin, "-run", runDir, "-addr", "127.0.0.1:0", "-idle", "50ms", "-bounded")
	waitHTTP(t, base+"/report", func(code int, body string) bool {
		return code == http.StatusServiceUnavailable && strings.Contains(body, "bounded")
	})

	// -fleet -store: a run moved into the watch directory ends done and
	// archived.
	root := t.TempDir()
	watch, staged := filepath.Join(root, "watch"), filepath.Join(root, "staged")
	for _, d := range []string{watch, staged} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"run.json", "execution.log", "monitoring.csv"} {
		data, err := os.ReadFile(filepath.Join(runDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(staged, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base = startServe(t, serveBin, "-fleet", watch, "-store", filepath.Join(root, "store"),
		"-addr", "127.0.0.1:0", "-idle", "50ms", "-poll", "20ms")
	if err := os.Rename(staged, filepath.Join(watch, "r1")); err != nil {
		t.Fatal(err)
	}
	waitHTTP(t, base+"/fleet/runs", func(code int, body string) bool {
		var snap struct {
			Runs []struct {
				Name, Status string
				ArchiveID    string `json:"archive_id"`
			}
		}
		if code != http.StatusOK || json.Unmarshal([]byte(body), &snap) != nil {
			return false
		}
		return len(snap.Runs) == 1 && snap.Runs[0].Name == "r1" &&
			snap.Runs[0].Status == "done" && snap.Runs[0].ArchiveID != ""
	})
}

// checkRunsimServe drives runsim -serve on a fresh -out directory: once the
// run is saved, the service follows it as serve -run does, so /report is the
// batch text, the ingest counters measure the bytes the follow read, and
// /explain answers on the finalized run with grade10 -explain's derivation.
func checkRunsimServe(t *testing.T, runsimBin, grade10Bin, graphFile string) {
	out := filepath.Join(t.TempDir(), "served")
	base := startServe(t, runsimBin, "-engine", "giraph", "-algorithm", "pagerank",
		"-graph", graphFile, "-workers", "2", "-threads", "4", "-out", out,
		"-serve", "127.0.0.1:0", "-linger", "30s")
	report := waitHTTP(t, base+"/report", func(code int, _ string) bool { return code == http.StatusOK })
	want, footer := batchReport(t, grade10Bin, out)
	if report != want {
		t.Fatalf("runsim -serve /report differs from grade10 -run:\n%s", report)
	}
	m := regexp.MustCompile(` (\d+) events`).FindStringSubmatch(footer)
	if m == nil {
		t.Fatalf("no event count in %q", footer)
	}
	var stats struct {
		Lines int64 `json:"lines"`
	}
	if _, body := httpGet(t, base+"/stats"); json.Unmarshal([]byte(body), &stats) != nil ||
		strconv.FormatInt(stats.Lines, 10) != m[1] {
		t.Fatalf("/stats lines = %d, want the log's %s events: %s", stats.Lines, m[1], body)
	}
	var overhead struct {
		Runs []struct {
			IngestBytes int64 `json:"ingest_bytes"`
		} `json:"runs"`
	}
	if _, body := httpGet(t, base+"/debug/overhead"); json.Unmarshal([]byte(body), &overhead) != nil ||
		len(overhead.Runs) != 1 || overhead.Runs[0].IngestBytes <= 0 {
		t.Fatalf("/debug/overhead does not count the ingested bytes: %s", body)
	}
	const header = "=== final (exact full-run derivation) ===\n"
	code, body := httpGet(t, base+"/explain?format=text&q="+url.QueryEscape(computeCPUQuery))
	if code != http.StatusOK || !strings.HasPrefix(body, header) {
		t.Fatalf("/explain = %d, want the final derivation: %.300s", code, body)
	}
	cli, err := exec.Command(grade10Bin, "-run", out, "-explain", computeCPUQuery).Output()
	if err != nil {
		t.Fatal(err)
	}
	if derivation := strings.TrimPrefix(body, header); derivation != string(cli) {
		t.Fatalf("runsim -serve /explain differs from grade10 -explain:\n%s\n--- grade10:\n%s", derivation, cli)
	}
}

var listenAddr = regexp.MustCompile(`listening on ([^\s,"]+)`)

// startServe starts a serving binary (serve, or runsim -serve) with args,
// learns its address from the "listening on" log line, and stops it when the
// test ends.
func startServe(t *testing.T, serveBin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(serveBin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(os.Interrupt)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			t.Errorf("%s %v did not exit on interrupt", filepath.Base(serveBin), args)
		}
	})
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := listenAddr.FindStringSubmatch(sc.Text()); m != nil {
			go func() { _, _ = io.Copy(io.Discard, stderr) }()
			return "http://" + m[1]
		}
	}
	t.Fatalf("%s %v exited without a listening line", filepath.Base(serveBin), args)
	return ""
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// waitHTTP polls url until ok accepts the answer and returns its body.
func waitHTTP(t *testing.T, url string, ok func(code int, body string) bool) string {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		code, body := httpGet(t, url)
		if ok(code, body) {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: last answer %d: %.300s", url, code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func readJSON(t *testing.T, path string, out any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
