package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// Path classes and operations the counting filesystem splits its
// counters by.
const (
	classWAL = iota
	classSegment
	classManifest
	classOther
	nClasses
)

const (
	fsWrite = iota
	fsSync
	fsReadAt
	fsReadFile
	fsRename
	fsSyncDir
	nFsOps
)

// fsSpanNames are the leaf span names, "vfs.<class>.<op>".
var fsSpanNames = func() (names [nClasses][nFsOps]string) {
	for c, class := range [nClasses]string{"wal", "seg", "manifest", "other"} {
		for o, op := range [nFsOps]string{"write", "sync", "readat", "readfile", "rename", "syncdir"} {
			names[c][o] = "vfs." + class + "." + op
		}
	}
	return names
}()

func classOf(path string) int {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal."):
		return classWAL
	case strings.HasPrefix(base, "MANIFEST"):
		return classManifest
	case strings.HasSuffix(base, ".seg") || strings.HasPrefix(base, "seg-"):
		return classSegment
	}
	return classOther
}

type fsCounter struct{ calls, bytes, ns atomic.Int64 }

// countFS is a timing and counting vfs.FS: bytes, calls and nanoseconds
// per Write, Sync, ReadAt, ReadFile, Rename and SyncDir, split by WAL,
// segment and MANIFEST paths. Only the traced pass uses it; the untraced
// pass runs on vfs.OS.
//
// Each call also becomes a leaf span. WAL writes happen on the writing
// goroutine, so they nest under the driver call in flight. While
// exclusive is set the driver itself makes every filesystem call (an
// engine opening or closing) and everything nests under it. All else is
// the background flusher or merger and is recorded as
// segment.background work nobody waited for.
type countFS struct {
	base      vfs.FS
	tr        *tracer
	c         [nClasses][nFsOps]fsCounter
	exclusive atomic.Pointer[op]
}

func newCountFS(tr *tracer) *countFS { return &countFS{base: vfs.OS, tr: tr} }

func (f *countFS) note(class, o int, bytes int, start time.Time) {
	d := time.Since(start)
	c := &f.c[class][o]
	c.calls.Add(1)
	c.bytes.Add(int64(bytes))
	c.ns.Add(int64(d))
	parent := f.exclusive.Load()
	if parent == nil && class == classWAL && o == fsWrite {
		parent = f.tr.driver.Load()
	}
	f.tr.leaf(fsSpanNames[class][o], parent, start, d)
}

// sum adds one counter field over the given classes (all when none).
func (f *countFS) sum(o int, field func(*fsCounter) int64, classes ...int) int64 {
	if len(classes) == 0 {
		classes = []int{classWAL, classSegment, classManifest, classOther}
	}
	var n int64
	for _, cl := range classes {
		n += field(&f.c[cl][o])
	}
	return n
}

func fsCalls(c *fsCounter) int64 { return c.calls.Load() }
func fsBytes(c *fsCounter) int64 { return c.bytes.Load() }
func fsNs(c *fsCounter) int64    { return c.ns.Load() }

type countFile struct {
	vfs.File
	fs    *countFS
	class int
}

func (f *countFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.note(f.class, fsWrite, n, start)
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.fs.note(f.class, fsReadAt, n, start)
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.note(f.class, fsSync, 0, start)
	return err
}

func (f *countFS) wrap(file vfs.File, err error, path string) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f, class: classOf(path)}, nil
}

func (f *countFS) Create(path string) (vfs.File, error) {
	file, err := f.base.Create(path)
	return f.wrap(file, err, path)
}

func (f *countFS) Open(path string) (vfs.File, error) {
	file, err := f.base.Open(path)
	return f.wrap(file, err, path)
}

func (f *countFS) OpenFile(path string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.base.OpenFile(path, flag, perm)
	return f.wrap(file, err, path)
}

func (f *countFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.base.Rename(oldpath, newpath)
	f.note(classOf(newpath), fsRename, 0, start)
	return err
}

func (f *countFS) Remove(path string) error { return f.base.Remove(path) }

func (f *countFS) MkdirAll(path string, perm os.FileMode) error { return f.base.MkdirAll(path, perm) }

func (f *countFS) ReadDir(path string) ([]os.DirEntry, error) { return f.base.ReadDir(path) }

func (f *countFS) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	b, err := f.base.ReadFile(path)
	f.note(classOf(path), fsReadFile, len(b), start)
	return b, err
}

func (f *countFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.base.SyncDir(dir)
	f.note(classOther, fsSyncDir, 0, start)
	return err
}
