package sessiondir_test

// End-to-end test of sdrd's -http-debug surface: a daemon started with it
// must serve Prometheus-text metrics (including the directory, admission
// and UDP-transport counter families), the event-trace dump, and expvar,
// scrapeable with a plain HTTP GET while the daemon runs.

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func httpGet(url string) (string, error) {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func TestSdrdHTTPDebugScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	udpPorts := freePorts(t, 2)

	cmd, out := startSdrd(t, buildSdrd(t),
		"-origin", "127.0.0.1",
		"-listen", fmt.Sprintf("127.0.0.1:%d", udpPorts[0]),
		"-peers", fmt.Sprintf("127.0.0.1:%d", udpPorts[1]),
		"-announce", "scrape-me",
		"-ttl", "63",
		"-seed", "7",
		"-http-debug", "127.0.0.1:0",
		"-for", scaled(2*time.Minute).String(), // a backstop: the test stops it
	)
	debug := debugAddr(t, out)

	// Poll /metrics until the daemon is up and has announced.
	var metrics string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			failDaemon(t, "never scraped a useful /metrics; last:\n"+metrics, out.String())
		}
		body, err := httpGet("http://" + debug + "/metrics")
		if err == nil && strings.Contains(body, "dir_announcements_sent_total") {
			metrics = body
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	// The counter families the acceptance criteria name: announces,
	// clashes, sheds, transport(-fault) counters — present even at zero.
	for _, family := range []string{
		"dir_announcements_sent_total",
		"dir_clash_moves_total",
		"dir_clash_defenses_own_total",
		"dir_admission_shed_total",
		"udp_received_total",
		"udp_read_errors_total",
		"dir_packet_size_bytes_count",
		"allocator_", // per-allocator pick counters
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q:\n%s", family, metrics)
		}
	}
	// The daemon announced at startup, so the counter must be nonzero and
	// the exposition must carry HELP/TYPE headers.
	if !strings.Contains(metrics, "# TYPE dir_announcements_sent_total counter") {
		t.Errorf("missing TYPE header:\n%s", metrics)
	}
	if strings.Contains(metrics, "dir_announcements_sent_total 0\n") {
		t.Errorf("announcements counter still zero after announce:\n%s", metrics)
	}

	trace, err := httpGet("http://" + debug + "/trace")
	if err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if !strings.Contains(trace, "# trace:") || !strings.Contains(trace, "allocate") {
		t.Errorf("/trace missing header or allocate event:\n%s", trace)
	}

	vars, err := httpGet("http://" + debug + "/debug/vars")
	if err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if !strings.Contains(vars, "memstats") {
		t.Errorf("/debug/vars missing memstats:\n%s", vars)
	}
	stopSdrd(t, cmd, out)
}
