package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultpoint"
)

// record invokes the driver like a shell would and captures both streams.
func record(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := record(t, "-list")
	if code != exitOK {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "tms320c25") || !strings.Contains(out, "dot_product") {
		t.Errorf("listing incomplete:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-kernel", "dot_product"},                      // no model
		{"-model", "nosuch", "-kernel", "dot_product"},  // unknown model
		{"-model", "demo"},                              // no program
		{"-model", "demo", "-mdl", "x.mdl"},             // conflicting model flags
		{"-model", "demo", "-kernel", "nosuch"},         // unknown kernel
		{"-badflag"},                                    // unknown flag
		{"-model", "demo", "-faultpoints", "plain-bad"}, // malformed spec
	}
	for _, args := range cases {
		if code, _, _ := record(t, args...); code != exitUsage {
			t.Errorf("record %v: exit = %d, want %d", args, code, exitUsage)
		}
	}
}

// TestDegradedRunStillOracleChecks is the headline robustness scenario: a
// route explosion injected into one destination (acc1.r of the demo model)
// produces exactly one warning, and the kernel still compiles, executes and
// oracle-checks on what is left of the instruction set.
func TestDegradedRunStillOracleChecks(t *testing.T) {
	code, out, errs := record(t,
		"-model", "demo", "-kernel", "dot_product", "-run",
		"-faultpoints", "ise.route.explosion@acc1.r=error")
	if code != exitOK {
		t.Fatalf("exit = %d\nstderr:\n%s", code, errs)
	}
	if n := strings.Count(errs, "warning:"); n != 1 {
		t.Errorf("warnings = %d, want exactly 1:\n%s", n, errs)
	}
	if !strings.Contains(errs, "acc1.r") {
		t.Errorf("warning does not name the dropped destination:\n%s", errs)
	}
	if !strings.Contains(out, "oracle-checked") {
		t.Errorf("missing oracle-checked variable dump:\n%s", out)
	}
}

// TestStrictPromotesDegradationToFailure: the same run under -strict must
// fail with the input/compile exit code.
func TestStrictPromotesDegradationToFailure(t *testing.T) {
	code, _, errs := record(t,
		"-model", "demo", "-kernel", "dot_product", "-run", "-strict",
		"-faultpoints", "ise.route.explosion@acc1.r=error")
	if code != exitInput {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitInput, errs)
	}
	if !strings.Contains(errs, "error: [ise]") {
		t.Errorf("promoted warning missing from listing:\n%s", errs)
	}
}

// TestMultiErrorListing: every syntax error of a broken model appears on
// stderr as file:line:col in a single pass.
func TestMultiErrorListing(t *testing.T) {
	mdl := filepath.Join(t.TempDir(), "bad.mdl")
	src := `PROCESSOR bad;
CONST = 4;
MODULE Alu (IN a: 8; OUT q: 8);
BEGIN
  q <- a + ;
END;
PORT OUT res : ;
`
	if err := os.WriteFile(mdl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errs := record(t, "-mdl", mdl, "-kernel", "dot_product")
	if code != exitInput {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitInput, errs)
	}
	for _, want := range []string{mdl + ":2:", mdl + ":5:", mdl + ":7:"} {
		if !strings.Contains(errs, want) {
			t.Errorf("listing missing %q:\n%s", want, errs)
		}
	}
	if strings.Contains(errs, "more errors") {
		t.Errorf("mashed single-line error leaked into stderr:\n%s", errs)
	}
}

// TestInternalFaultExitCode: a panic inside a phase is recovered at the
// phase boundary and classified as an internal fault.
func TestInternalFaultExitCode(t *testing.T) {
	code, _, errs := record(t,
		"-model", "demo", "-kernel", "dot_product",
		"-faultpoints", "grammar.rule=panic")
	if code != exitInternal {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitInternal, errs)
	}
	if !strings.Contains(errs, "recovered at phase boundary") {
		t.Errorf("missing recovery diagnostic:\n%s", errs)
	}
}

// TestTimeoutBudget: an immediately-expired deadline aborts retargeting
// with an input/resource failure, not a hang or a crash.
func TestTimeoutBudget(t *testing.T) {
	code, _, errs := record(t,
		"-model", "demo", "-kernel", "dot_product", "-timeout", "1ns")
	if code != exitInput {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitInput, errs)
	}
}

// TestMaxErrors caps the listing.
func TestMaxErrors(t *testing.T) {
	mdl := filepath.Join(t.TempDir(), "bad.mdl")
	var b strings.Builder
	b.WriteString("PROCESSOR bad;\n")
	for i := 0; i < 10; i++ {
		b.WriteString("CONST = 1;\n")
	}
	if err := os.WriteFile(mdl, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errs := record(t, "-mdl", mdl, "-kernel", "dot_product", "-max-errors", "3")
	if code != exitInput {
		t.Fatalf("exit = %d, want %d", code, exitInput)
	}
	if !strings.Contains(errs, "too many errors (limit 3)") {
		t.Errorf("missing bail diagnostic:\n%s", errs)
	}
	if n := strings.Count(errs, "error:"); n > 5 {
		t.Errorf("listing not capped: %d error lines\n%s", n, errs)
	}
}

// TestHealthyRunHasNoDiagnostics guards against diagnostic noise on the
// happy path.
func TestHealthyRunHasNoDiagnostics(t *testing.T) {
	code, out, errs := record(t, "-model", "demo", "-kernel", "real_update", "-run")
	if code != exitOK {
		t.Fatalf("exit = %d\nstderr:\n%s", code, errs)
	}
	if errs != "" {
		t.Errorf("unexpected stderr output:\n%s", errs)
	}
	if !strings.Contains(out, "oracle-checked") {
		t.Errorf("missing variable dump:\n%s", out)
	}
}

func TestJobsParallelSources(t *testing.T) {
	dir := t.TempDir()
	srcs := []string{
		"int a = 2; int b = 3; int y; y = a + b;",
		"int a = 7; int b = 2; int y; y = a - b;",
		"int a = 4; int y; y = a + a;",
	}
	var files []string
	for i, src := range srcs {
		f := filepath.Join(dir, "p"+string(rune('0'+i))+".c")
		if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	serial, parallel := []string{"-model", "demo", "-jobs", "1"}, []string{"-model", "demo", "-jobs", "3"}
	code, outSerial, _ := record(t, append(serial, files...)...)
	if code != exitOK {
		t.Fatalf("serial batch: exit %d\n%s", code, outSerial)
	}
	code, outParallel, _ := record(t, append(parallel, files...)...)
	if code != exitOK {
		t.Fatalf("parallel batch: exit %d\n%s", code, outParallel)
	}
	// Output is buffered per file and replayed in argument order, so
	// parallel must be byte-identical to serial.
	if outParallel != outSerial {
		t.Fatalf("-jobs 3 output differs from -jobs 1:\n--- serial ---\n%s\n--- parallel ---\n%s", outSerial, outParallel)
	}
	for _, f := range files {
		if !strings.Contains(outParallel, "==> "+f) {
			t.Errorf("missing section for %s", f)
		}
	}
}

func TestJobsBatchPartialFailure(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.c")
	bad := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(good, []byte("int a = 1; int y; y = a + a;"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("int a = 1; int y; y = a + ;"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := record(t, "-model", "demo", "-jobs", "2", good, bad)
	if code != exitInput {
		t.Fatalf("exit %d, want %d\nstderr: %s", code, exitInput, errs)
	}
	// The good file still compiled and printed.
	if !strings.Contains(out, "==> "+good) || !strings.Contains(out, "code for demo") {
		t.Errorf("good file output missing:\n%s", out)
	}
	if !strings.Contains(errs, bad) || !strings.Contains(errs, "1 of 2 source files failed") {
		t.Errorf("failure summary missing:\n%s", errs)
	}
}

func TestJobsUsageErrors(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "p.c")
	if err := os.WriteFile(f, []byte("int a = 1; int y; y = a;"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-model", "demo", "-jobs", "-2", f},            // negative jobs
		{"-model", "demo", "-src", f, f},                // -src plus positional
		{"-model", "demo", "-kernel", "dot_product", f}, // -kernel plus positional
	} {
		if code, _, _ := record(t, args...); code != exitUsage {
			t.Errorf("record %v: exit = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestFaultpointsListPrintsEverySite(t *testing.T) {
	code, out, _ := record(t, "-faultpoints", "list")
	if code != exitOK {
		t.Fatalf("exit = %d", code)
	}
	for _, site := range faultpoint.Sites() {
		if !strings.Contains(out, site.Name) {
			t.Errorf("site %s missing from listing:\n%s", site.Name, out)
		}
	}
}

// TestServerFlagUsageErrors: local-only flags and a URL list are usage
// errors with -server, raised before any request is sent.  A comma list
// would otherwise go out as one malformed URL.
func TestServerFlagUsageErrors(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	cases := [][]string{
		{"-server", "http://x", "-model", "demo", "-kernel", "dot_product", "-naive"},
		{"-server", "http://x", "-model", "demo", "-kernel", "dot_product", "-run"},
		{"-server", "http://x", "-model", "demo", "-kernel", "dot_product", "-seq"},
		{"-server", "http://a,http://b", "-model", "demo", "-kernel", "dot_product"},
		{"-server", srv.URL + "," + srv.URL, "-model", "demo", "-kernel", "dot_product"},
	}
	for _, args := range cases {
		if code, _, _ := record(t, args...); code != exitUsage {
			t.Errorf("%v: exit = %d, want %d", args, code, exitUsage)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the server was contacted %d times", n)
	}
}

// TestServerRejectsRetargetFlags: a flag that shapes the retarget cannot
// reach the node, which retargets under its own settings, so with -server
// it is a usage error raised before any request is sent.
func TestServerRejectsRetargetFlags(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	for _, flag := range [][]string{
		{"-no-extension"},
		{"-max-routes", "1"},
		{"-max-bdd-nodes", "100000"},
	} {
		args := append([]string{"-server", srv.URL, "-model", "demo", "-kernel", "fir"}, flag...)
		if code, _, stderr := record(t, args...); code != exitUsage {
			t.Errorf("%v: exit = %d, want %d; stderr:\n%s", flag, code, exitUsage, stderr)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the server was contacted %d times", n)
	}
}

// TestServerRemoteCompile drives the -server path against a stub speaking
// the recordd wire protocol; the end-to-end version against a live daemon
// runs in CI.
func TestServerRemoteCompile(t *testing.T) {
	var retargets, compiles atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/retarget":
			retargets.Add(1)
			fmt.Fprint(w, `{"key":"k1","name":"demo","templates":5,"rules":9,"cache":"miss"}`)
		case "/v1/compile":
			if compiles.Add(1) == 1 { // one injected transient failure
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprint(w, `{"error":"injected fault recordd.worker.spawn"}`)
				return
			}
			fmt.Fprint(w, `{"key":"k1","name":"demo","cache":"hit","seq_len":4,"code_len":3,"words":[1,2,3],"listing":"0000 nop\n"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer srv.Close()

	code, out, stderr := record(t, "-server", srv.URL, "-model", "demo", "-kernel", "dot_product")
	if code != exitOK {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "code for demo: 4 RT instructions in 3 words") {
		t.Errorf("remote output shape differs from local:\n%s", out)
	}
	if retargets.Load() != 1 {
		t.Errorf("retargets = %d, want 1", retargets.Load())
	}
	if compiles.Load() != 2 {
		t.Errorf("compiles = %d, want 2 (retry through the injected failure)", compiles.Load())
	}
}

// TestServerStatsPrintsServerTiming: with -stats, each response's
// Server-Timing header is printed as it came, one line per response;
// without -stats nothing is.
func TestServerStatsPrintsServerTiming(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/retarget":
			w.Header().Set("Server-Timing", "cache;desc=miss;dur=0.100, frontend;dur=1.000, total;dur=2.000")
			fmt.Fprint(w, `{"key":"k1","name":"demo","templates":5,"rules":9,"cache":"miss"}`)
		case "/v1/compile":
			w.Header().Set("Server-Timing", "cache;desc=mem;dur=0.010, bind;dur=0.020, total;dur=0.500")
			fmt.Fprint(w, `{"key":"k1","name":"demo","cache":"hit","seq_len":4,"code_len":3,"words":[1,2,3],"listing":"0000 nop\n"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer srv.Close()

	code, out, stderr := record(t, "-server", srv.URL, "-model", "demo", "-kernel", "dot_product", "-stats")
	if code != exitOK {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"server-timing: cache;desc=miss;dur=0.100, frontend;dur=1.000, total;dur=2.000\n",
		"server-timing: cache;desc=mem;dur=0.010, bind;dur=0.020, total;dur=0.500\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output lacks %q:\n%s", want, out)
		}
	}
	if _, out, _ := record(t, "-server", srv.URL, "-model", "demo", "-kernel", "dot_product"); strings.Contains(out, "server-timing:") {
		t.Errorf("server-timing printed without -stats:\n%s", out)
	}
}
