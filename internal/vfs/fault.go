package vfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrInjected is the default error a FaultFS rule injects. It carries no
// taxonomy marker, so IsTransient reports false — wrap it with Transient
// or Permanent in a Rule to script the other branch.
var ErrInjected = errors.New("injected fault")

// Op names one filesystem operation kind for fault-rule matching.
type Op string

// The operation kinds a Rule can match. OpWrite, OpReadAt, and OpSync
// fire on handles returned by a faulty Create/Open; the rest fire on
// the FS-level call itself.
const (
	OpCreate   Op = "create"
	OpOpen     Op = "open"
	OpOpenFile Op = "openfile"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpMkdirAll Op = "mkdirall"
	OpReadDir  Op = "readdir"
	OpReadFile Op = "readfile"
	OpSyncDir  Op = "syncdir"
	OpWrite    Op = "write"
	OpReadAt   Op = "readat"
	OpSync     Op = "sync"
)

// Rule scripts one fault: which operations it matches and what happens
// when it fires. A rule matches an operation when Op and Path both
// match (empty = wildcard; Path is a filepath.Match glob against the
// base name). Each rule keeps its own match counter: it fires on
// matches After < n ≤ After+Count (Count 0 = every match past After).
type Rule struct {
	// Op restricts the rule to one operation kind ("" = any).
	Op Op
	// Path is a glob matched against the file's base name ("" = any).
	// For renames it is matched against both the old and new name.
	Path string
	// After skips the first After matching operations.
	After int
	// Count bounds how many times the rule fires (0 = unlimited).
	Count int
	// Err is the injected error; nil injects ErrInjected. Wrap with
	// Transient or Permanent to pick the taxonomy branch.
	Err error
	// ShortWrite makes a firing OpWrite persist only half the buffer
	// before returning the error — a torn append.
	ShortWrite bool
	// TornRename performs the rename and then reports the error — the
	// ambiguous-outcome case callers must survive either way.
	TornRename bool
	// SyncLie makes a firing OpSync/OpSyncDir report success without
	// syncing — the lying-fsync drive. LiedSyncs counts occurrences.
	SyncLie bool
}

// FaultFS wraps an inner FS and injects scripted faults. Safe for
// concurrent use; rules fire deterministically in the order operations
// reach the seam.
type FaultFS struct {
	inner FS

	mu       sync.Mutex
	rules    []*ruleState
	injected int
	lied     int
}

type ruleState struct {
	Rule
	matched int
}

// NewFaultFS wraps inner (usually OS) with an empty fault script.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner}
}

// AddRule appends one fault rule to the script.
func (f *FaultFS) AddRule(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &ruleState{Rule: r})
}

// Injected reports how many operations have had a fault injected.
func (f *FaultFS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// LiedSyncs reports how many fsyncs were skipped by SyncLie rules.
func (f *FaultFS) LiedSyncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lied
}

// hit records one operation and returns the first firing rule, if any.
func (f *FaultFS) hit(op Op, paths ...string) (Rule, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rs := range f.rules {
		if rs.Op != "" && rs.Op != op {
			continue
		}
		if rs.Path != "" && !matchAny(rs.Path, paths) {
			continue
		}
		rs.matched++
		if rs.matched <= rs.After {
			continue
		}
		if rs.Count > 0 && rs.matched > rs.After+rs.Count {
			continue
		}
		f.injected++
		if rs.SyncLie {
			f.lied++
		}
		return rs.Rule, true
	}
	return Rule{}, false
}

func matchAny(glob string, paths []string) bool {
	for _, p := range paths {
		if ok, _ := filepath.Match(glob, filepath.Base(p)); ok {
			return true
		}
	}
	return false
}

// inject builds the error a firing rule reports.
func inject(r Rule, op Op, path string) error {
	cause := r.Err
	if cause == nil {
		cause = ErrInjected
	}
	return fmt.Errorf("fault on %s %s: %w", op, filepath.Base(path), cause)
}

// Create implements FS, injecting OpCreate faults.
func (f *FaultFS) Create(path string) (File, error) {
	if r, ok := f.hit(OpCreate, path); ok {
		return nil, inject(r, OpCreate, path)
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f, path: path}, nil
}

// Open implements FS, injecting OpOpen faults.
func (f *FaultFS) Open(path string) (File, error) {
	if r, ok := f.hit(OpOpen, path); ok {
		return nil, inject(r, OpOpen, path)
	}
	inner, err := f.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f, path: path}, nil
}

// OpenFile implements FS, injecting OpOpenFile faults.
func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if r, ok := f.hit(OpOpenFile, path); ok {
		return nil, inject(r, OpOpenFile, path)
	}
	inner, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f, path: path}, nil
}

// Rename implements FS. A firing TornRename rule performs the rename
// and still reports the error; otherwise the rename is suppressed.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if r, ok := f.hit(OpRename, oldpath, newpath); ok {
		if r.TornRename {
			_ = f.inner.Rename(oldpath, newpath)
		}
		return inject(r, OpRename, newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS, injecting OpRemove faults.
func (f *FaultFS) Remove(path string) error {
	if r, ok := f.hit(OpRemove, path); ok {
		return inject(r, OpRemove, path)
	}
	return f.inner.Remove(path)
}

// MkdirAll implements FS, injecting OpMkdirAll faults.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if r, ok := f.hit(OpMkdirAll, path); ok {
		return inject(r, OpMkdirAll, path)
	}
	return f.inner.MkdirAll(path, perm)
}

// ReadDir implements FS, injecting OpReadDir faults.
func (f *FaultFS) ReadDir(path string) ([]os.DirEntry, error) {
	if r, ok := f.hit(OpReadDir, path); ok {
		return nil, inject(r, OpReadDir, path)
	}
	return f.inner.ReadDir(path)
}

// ReadFile implements FS, injecting OpReadFile faults.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if r, ok := f.hit(OpReadFile, path); ok {
		return nil, inject(r, OpReadFile, path)
	}
	return f.inner.ReadFile(path)
}

// SyncDir implements FS. A firing SyncLie rule skips the directory
// fsync and reports success.
func (f *FaultFS) SyncDir(dir string) error {
	if r, ok := f.hit(OpSyncDir, dir); ok {
		if r.SyncLie {
			return nil
		}
		return inject(r, OpSyncDir, dir)
	}
	return f.inner.SyncDir(dir)
}

// faultFile intercepts the per-handle operations (write, pread, fsync)
// of a file opened through a FaultFS.
type faultFile struct {
	File
	fs   *FaultFS
	path string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if r, ok := f.fs.hit(OpWrite, f.path); ok {
		if r.ShortWrite && len(p) > 1 {
			n, _ := f.File.Write(p[:len(p)/2])
			return n, inject(r, OpWrite, f.path)
		}
		return 0, inject(r, OpWrite, f.path)
	}
	return f.File.Write(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if r, ok := f.fs.hit(OpReadAt, f.path); ok {
		return 0, inject(r, OpReadAt, f.path)
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	if r, ok := f.fs.hit(OpSync, f.path); ok {
		if r.SyncLie {
			return nil
		}
		return inject(r, OpSync, f.path)
	}
	return f.File.Sync()
}
