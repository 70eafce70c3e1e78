package bms

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"occusim/internal/building"
	"occusim/internal/store"
)

// The fixtures under testdata were written by the last build whose WAL
// observation record was the tag-0x01 codec: prewire-snapshot holds the
// snapshot a graceful Close left, prewire-views.json the views it had
// then, and prewire-tail the stripe logs of a server killed mid-stream.

// copyFixture copies one testdata directory into a fresh data dir.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", name, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture %s: %v", name, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func openFixture(dir string) (*Server, error) {
	st, err := store.New(100)
	if err != nil {
		return nil, err
	}
	return OpenDurableServer(building.PaperHouse(), st, 2, DurableConfig{Dir: dir, Policy: store.FsyncOff})
}

// TestPreWireSnapshotRestores: the snapshot format did not change, so a
// shard drained under the previous build restores every view unchanged.
func TestPreWireSnapshotRestores(t *testing.T) {
	dir := copyFixture(t, "prewire-snapshot")
	want, err := os.ReadFile(filepath.Join("testdata", "prewire-views.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := openFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := viewsJSON(t, s); got != strings.TrimSpace(string(want)) {
		t.Fatalf("restored views diverge\n got: %s\nwant: %s", got, want)
	}
	if epoch, holder := s.GrantedLease(); epoch != 3 || holder != "gw-a:8080" {
		t.Fatalf("restored lease = %d/%q", epoch, holder)
	}
	if s.Classifier() != "scene-svm" {
		t.Fatalf("restored classifier = %s", s.Classifier())
	}
}

// TestPreWireLogTailRefused: a log tail holding observation records of
// an older form — the tag-0x01 binary record or the JSON "obs" record —
// fails recovery with the drain instruction instead of being read.
func TestPreWireLogTailRefused(t *testing.T) {
	jsonDir := t.TempDir()
	w, err := store.OpenWAL(jsonDir, store.ObsStripes, store.FsyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	end := w.Begin()
	err = w.Append(store.StripeFor("p"), []byte(`{"t":"obs","reports":[{"d":"p","at":1000000000,"r":"kitchen"}]}`))
	end()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for name, dir := range map[string]string{
		"binary-0x01": copyFixture(t, "prewire-tail"),
		"json-obs":    jsonDir,
	} {
		s, err := openFixture(dir)
		if err == nil {
			s.Close()
			t.Fatalf("%s: recovery read a pre-wire log tail", name)
		}
		if !errors.Is(err, errPreWireLog) || !strings.Contains(err.Error(), "drain") {
			t.Fatalf("%s: err = %v, want the drain instruction", name, err)
		}
	}
}
