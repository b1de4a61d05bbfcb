package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/libos"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/ulib"
)

// say builds a program printing msg. Messages of equal length give
// binaries of equal encoded size, so one can overwrite another in place
// without a truncate.
func say(t testing.TB, msg string) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	b.String("m", msg)
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.WriteStr(b, 1, "m", int64(len(msg)))
	ulib.Exit(b, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compileSay(t testing.TB, tc *core.Toolchain, msg string) []byte {
	t.Helper()
	bin, err := tc.Compile("p", say(t, msg))
	if err != nil {
		t.Fatal(err)
	}
	return bin.Marshal()
}

// run spawns path and returns its stdout, or the spawn error.
func run(sys *core.System, path string) (string, error) {
	var out bytes.Buffer
	p, err := sys.OS.Spawn(path, nil, libos.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		return "", err
	}
	if st := p.Wait(); st != 0 {
		return out.String(), fmt.Errorf("%s exited %d", path, st)
	}
	return out.String(), nil
}

func mustRun(t testing.TB, sys *core.System, path, want string) {
	t.Helper()
	got, err := run(sys, path)
	if err != nil {
		t.Fatalf("spawn %s: %v", path, err)
	}
	if got != want {
		t.Fatalf("spawn %s printed %q, want %q", path, got, want)
	}
}

// writeInPlace overwrites path from offset 0 without truncating it.
func writeInPlace(t testing.TB, sys *core.System, path string, data []byte) {
	t.Helper()
	f, err := sys.OS.VFS().Open(path, fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
}

func fileID(t testing.TB, sys *core.System, path string) fs.FileID {
	t.Helper()
	f, err := sys.OS.VFS().Open(path, fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	k, ok := f.(fs.Versioned).ContentKey()
	if !ok {
		t.Fatalf("%s names no content version", path)
	}
	return k.FileID
}

// TestBinaryCacheInvalidation changes the content behind a path after a
// spawn has cached its verified binary, once per way content can
// change. The next spawn must see the new content: run it if it is
// validly signed, refuse it otherwise — never run the cached program.
func TestBinaryCacheInvalidation(t *testing.T) {
	tc := core.NewToolchain()
	rogue := core.NewToolchainWith(oelf.NewSigningKey("rogue"), mmdsfi.DefaultOptions())
	binA, binB := compileSay(t, tc, "AAAA"), compileSay(t, tc, "BBBB")

	// boot installs program A at /bin/p and spawns it once, so the
	// verified binary is cached.
	boot := func(t *testing.T) *core.System {
		sys, err := core.BootSystem(core.SystemConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.OS.Shutdown() })
		if err := sys.WriteFile("/bin/p", binA); err != nil {
			t.Fatal(err)
		}
		mustRun(t, sys, "/bin/p", "AAAA")
		mustRun(t, sys, "/bin/p", "AAAA")
		if s := sys.OS.LoaderStats(); s.Hits != 1 {
			t.Fatalf("second spawn should hit the cache: %+v", s)
		}
		return sys
	}

	t.Run("rogue-overwrite-in-place", func(t *testing.T) {
		sys := boot(t)
		evil := compileSay(t, rogue, "EVIL")
		if len(evil) != len(binA) {
			t.Fatalf("rogue binary is %d bytes, A is %d", len(evil), len(binA))
		}
		writeInPlace(t, sys, "/bin/p", evil)
		if _, err := run(sys, "/bin/p"); !errors.Is(err, libos.ErrNotSigned) {
			t.Fatalf("err = %v, want ErrNotSigned", err)
		}
	})

	t.Run("valid-overwrite-in-place", func(t *testing.T) {
		sys := boot(t)
		writeInPlace(t, sys, "/bin/p", binB)
		mustRun(t, sys, "/bin/p", "BBBB")
	})

	t.Run("truncate-then-rewrite", func(t *testing.T) {
		sys := boot(t)
		f, err := sys.OS.VFS().Open("/bin/p", fs.ORdWr|fs.OTrunc)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// The path now holds an empty file: nothing to run.
		if out, err := run(sys, "/bin/p"); err == nil {
			t.Fatalf("truncated binary ran (printed %q)", out)
		}
		if _, err := f.WriteAt(binB, 0); err != nil {
			t.Fatal(err)
		}
		mustRun(t, sys, "/bin/p", "BBBB")
	})

	t.Run("rename-over", func(t *testing.T) {
		sys := boot(t)
		if err := sys.WriteFile("/bin/q", binB); err != nil {
			t.Fatal(err)
		}
		if err := sys.OS.VFS().Rename("/bin/q", "/bin/p"); err != nil {
			t.Fatal(err)
		}
		mustRun(t, sys, "/bin/p", "BBBB")
	})

	t.Run("unlink-recreate-reuses-inode", func(t *testing.T) {
		sys := boot(t)
		before := fileID(t, sys, "/bin/p")
		if err := sys.OS.VFS().Unlink("/bin/p"); err != nil {
			t.Fatal(err)
		}
		if err := sys.WriteFile("/bin/p", binB); err != nil {
			t.Fatal(err)
		}
		if after := fileID(t, sys, "/bin/p"); after != before {
			t.Fatalf("recreated file got %+v, want the freed inode %+v", after, before)
		}
		mustRun(t, sys, "/bin/p", "BBBB")
	})

	t.Run("union-copy-up", func(t *testing.T) {
		ib := fs.NewImageBuilder()
		if err := ib.AddFile("/bin/img", binA); err != nil {
			t.Fatal(err)
		}
		blob, root, err := ib.Build()
		if err != nil {
			t.Fatal(err)
		}
		lc := libos.DefaultConfig()
		lc.BaseImage, lc.BaseImageRoot = "base.img", root
		sys, err := core.BootSystem(core.SystemConfig{
			LibOS:     lc,
			HostFiles: map[string][]byte{"base.img": blob},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.OS.Shutdown()
		mustRun(t, sys, "/bin/img", "AAAA")
		mustRun(t, sys, "/bin/img", "AAAA")
		// The first write copies the image file up into the encrypted
		// layer: a different filesystem and inode.
		writeInPlace(t, sys, "/bin/img", binB)
		mustRun(t, sys, "/bin/img", "BBBB")
		// And a rogue write to the copied-up file is still caught.
		writeInPlace(t, sys, "/bin/img", compileSay(t, rogue, "EVIL"))
		if _, err := run(sys, "/bin/img"); !errors.Is(err, libos.ErrNotSigned) {
			t.Fatalf("err = %v, want ErrNotSigned", err)
		}
		if s := sys.OS.LoaderStats(); s.Hits != 1 || s.Misses != 3 {
			t.Fatalf("loader stats %+v, want 1 hit and 3 misses", s)
		}
	})
}

// TestBinaryCacheConcurrentRewrite spawns one path from two goroutines
// on a 2-hart LibOS while a writer flips the file between two validly
// signed binaries of equal size, in place. Every spawn must run one of
// the two programs in full; none may be refused or see a mix.
func TestBinaryCacheConcurrentRewrite(t *testing.T) {
	tc := core.NewToolchain()
	bins := [][]byte{compileSay(t, tc, "AAAA"), compileSay(t, tc, "BBBB")}
	lc := libos.DefaultConfig()
	lc.MaxThreads = 2
	sys, err := core.BootSystem(core.SystemConfig{LibOS: lc})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	if err := sys.WriteFile("/bin/p", bins[0]); err != nil {
		t.Fatal(err)
	}
	f, err := sys.OS.VFS().Open("/bin/p", fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const spawners, spawns = 2, 40
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	writes := 0
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := f.WriteAt(bins[i%2], 0); err != nil {
				t.Error(err)
				return
			}
			writes++
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < spawners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spawns; i++ {
				out, err := run(sys, "/bin/p")
				if err != nil {
					t.Errorf("spawn refused: %v", err)
					return
				}
				if out != "AAAA" && out != "BBBB" {
					t.Errorf("spawn printed %q", out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	writer.Wait()
	s := sys.OS.LoaderStats()
	if s.Hits+s.Misses != spawners*spawns {
		t.Fatalf("loader stats %+v over %d spawns", s, spawners*spawns)
	}
	t.Logf("%d writes, loader stats %+v", writes, s)
}

// TestLoaderCountersOneVerifyPerVersion: N spawns of an unchanged binary
// verify it once; one write costs exactly one more verification.
func TestLoaderCountersOneVerifyPerVersion(t *testing.T) {
	tc := core.NewToolchain()
	sys, err := core.BootSystem(core.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	if err := sys.WriteFile("/bin/p", compileSay(t, tc, "AAAA")); err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		mustRun(t, sys, "/bin/p", "AAAA")
	}
	if s := sys.OS.LoaderStats(); s != (libos.LoaderStats{Hits: n - 1, Misses: 1}) {
		t.Fatalf("after %d unchanged spawns: %+v, want 1 miss", n, s)
	}
	writeInPlace(t, sys, "/bin/p", compileSay(t, tc, "BBBB"))
	for i := 0; i < n; i++ {
		mustRun(t, sys, "/bin/p", "BBBB")
	}
	if s := sys.OS.LoaderStats(); s != (libos.LoaderStats{Hits: 2*n - 2, Misses: 2}) {
		t.Fatalf("after one write: %+v, want 2 misses", s)
	}
}

// shrinkFS serves one file whose reads return fewer bytes than Size
// reports, as a file shrinking between the two calls would. Its nodes
// name no content version.
type shrinkFS struct{ data []byte }

type shrinkNode struct{ data []byte }

func (n shrinkNode) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(p, n.data[off:]), nil
}
func (n shrinkNode) WriteAt([]byte, int64) (int, error) { return 0, fs.ErrReadOnly }
func (n shrinkNode) Size() int64                        { return int64(len(n.data)) + 4096 }
func (n shrinkNode) Close() error                       { return nil }

func (s shrinkFS) Open(string, fs.OpenFlag) (fs.Node, error) { return shrinkNode{s.data}, nil }
func (s shrinkFS) Mkdir(string) error                        { return fs.ErrReadOnly }
func (s shrinkFS) Unlink(string) error                       { return fs.ErrReadOnly }
func (s shrinkFS) ReadDir(string) ([]fs.FileInfo, error)     { return nil, fs.ErrNotDir }
func (s shrinkFS) Stat(string) (fs.FileInfo, error)          { return fs.FileInfo{}, nil }

// TestLoaderShortReadAndUnversionedNodes: the loader parses only the
// bytes a read returned, and a node without a content version is
// verified on every spawn and never cached.
func TestLoaderShortReadAndUnversionedNodes(t *testing.T) {
	tc := core.NewToolchain()
	sys, err := core.BootSystem(core.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	bin := compileSay(t, tc, "AAAA")
	sys.OS.VFS().Mount("/short", shrinkFS{bin[:len(bin)/2]})
	sys.OS.VFS().Mount("/whole", shrinkFS{bin})
	// Half a binary padded with zeros would parse (as unsigned); the
	// bytes actually read are a truncated binary.
	if _, err := run(sys, "/short/p"); !errors.Is(err, oelf.ErrBadFormat) {
		t.Fatalf("short read: err = %v, want ErrBadFormat", err)
	}
	mustRun(t, sys, "/whole/p", "AAAA")
	mustRun(t, sys, "/whole/p", "AAAA")
	if s := sys.OS.LoaderStats(); s != (libos.LoaderStats{Misses: 3}) {
		t.Fatalf("loader stats %+v, want 3 misses and no hits", s)
	}
}
