//go:build linux

package snapshot_test

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/buildctl"
	"repro/internal/features"
	"repro/internal/snapshot"
)

// filePmdMappedKB returns the FilePmdMapped figure, in KiB, of the
// process's mapping of path, read from /proc/self/smaps, and whether
// such a mapping was found there. path must be free of symlinks:
// smaps names the resolved file.
func filePmdMappedKB(t *testing.T, path string) (kb int, found bool) {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// A mapping's header line starts with its address range and
		// ends with the mapped file's path, which may hold spaces.
		if strings.Contains(fields[0], "-") && !strings.HasSuffix(fields[0], ":") {
			in = strings.HasSuffix(line, " "+path)
			continue
		}
		if in && fields[0] == "FilePmdMapped:" && len(fields) >= 2 {
			kb, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("smaps FilePmdMapped %q: %v", fields[1], err)
			}
			return kb, true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return 0, false
}

// controlMapsHuge writes a 6 MiB file in aligned 2 MiB writes, maps
// it, touches a byte in its middle block and skips the test, naming
// the reason, unless that block came in as a PMD mapping: unless this
// kernel, filesystem and transparent-huge-page setting can map a file
// written that way huge at all.
func controlMapsHuge(t *testing.T, dir string) {
	t.Helper()
	const block, size = 2 << 20, 6 << 20
	path := filepath.Join(dir, "control")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, block)
	for b := 0; b < size/block; b++ {
		for i := range buf {
			buf[i] = byte(b + 1)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(data)
	if data[size/2] != size/2/block+1 {
		t.Fatal("control file reads back wrong")
	}
	switch kb, found := filePmdMappedKB(t, path); {
	case !found:
		t.Skipf("the control file's mapping is not listed under %s in /proc/self/smaps", path)
	case kb == 0:
		t.Skip("an aligned-written control file does not map huge here (kernel without file THP, a filesystem without large folios, or transparent_hugepage=never)")
	}
}

// TestSealedStoreMapsHuge pins the store's page-size contract: a store
// sealed by a coordinated build and opened by Open maps a touched
// mid-store float with a 2 MiB page-table entry, not a folio of base
// pages. It skips where a control file written in aligned 2 MiB
// chunks in the same directory does not map huge either.
func TestSealedStoreMapsHuge(t *testing.T) {
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	controlMapsHuge(t, dir)
	// Hourly bins, one week: a 24,192-byte record, so 256 users seal a
	// 6.2 MB store whose middle lies in a whole 2 MiB block.
	key := snapshot.Key{Seed: 1, Users: 256, Weeks: 1, BinWidth: time.Hour}
	gen := func(u int, rows [][features.NumFeatures]float64) {
		for i := range rows {
			for f := range rows[i] {
				rows[i][f] = float64((u*31 + i*7 + f) % 97)
			}
		}
	}
	if _, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key, Parallel: 2,
		Worker: &buildctl.LocalWorker{Dir: dir, Key: key, Generate: gen},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(key.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= 4<<20 {
		t.Fatalf("store is %d bytes; the test needs more than 4 MiB", st.Size())
	}
	s, err := snapshot.Open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mid := key.Users / 2
	if got, want := s.User(mid)[0], float64((mid*31)%97); got != want {
		t.Fatalf("user %d first float %v, want %v", mid, got, want)
	}
	switch kb, found := filePmdMappedKB(t, key.Path(dir)); {
	case !found:
		t.Fatalf("no mapping of %s in /proc/self/smaps", key.Path(dir))
	case kb == 0:
		t.Fatal("touching a mid-store float mapped no 2 MiB page of the sealed store (FilePmdMapped 0 kB)")
	}
}
