package bench

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hipec/internal/kevent"
)

// TestGoldenEventLogs byte-compares freshly captured sim event logs with
// the pinned goldens in testdata/goldens. Every change to the sim, the
// executor or the timer wheel that alters the event stream fails here,
// so `go test ./...` alone shows a refactor is behaviour-preserving.
// Regenerate a golden only for an intended behaviour change, with the
// matching cmd/experiments -event-log run.
func TestGoldenEventLogs(t *testing.T) {
	cases := []struct {
		golden  string
		capture func(w io.Writer) error
	}{
		{"quick", func(w io.Writer) error { _, err := CaptureEventLog(w, true); return err }},
		{"full", func(w io.Writer) error { _, err := CaptureEventLog(w, false); return err }},
		{"chaos", func(w io.Writer) error { _, err := CaptureChaosLog(w, 1, true); return err }},
		{"sharded", func(w io.Writer) error {
			lw := kevent.NewLogWriter(w)
			if _, err := RunSharded(ShardedConfig{Shards: 1, Quick: true, Shard0Sink: lw}); err != nil {
				return err
			}
			return lw.Flush()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want := readGolden(t, tc.golden)
			var got bytes.Buffer
			if err := tc.capture(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatal(firstDifference(want, got.Bytes()))
			}
		})
	}
}

// readGolden returns the gunzipped testdata/goldens/<name>.kevlog.gz.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "goldens", name+".kevlog.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDifference describes the first log line (one event per line after
// the header) where got departs from want.
func firstDifference(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("log diverges at line %d:\n  golden:   %s\n  captured: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("logs agree for %d lines, then lengths differ: golden %d lines, captured %d",
		min(len(wl), len(gl)), len(wl), len(gl))
}
