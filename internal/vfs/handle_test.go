package vfs

import (
	"errors"
	"testing"
)

// sizeAppender is one way of reading and growing a size-only file: by
// path through the FS, or through a Handle taken on the path.
type sizeAppender interface {
	Size() int64
	Append(n int64) error
}

type pathAPI struct {
	fs *FS
	p  string
}

func (a pathAPI) Size() int64          { return a.fs.Size(a.p) }
func (a pathAPI) Append(n int64) error { return a.fs.Append(a.p, n) }

// TestHandleMatchesPathAPI drives FS.Append/FS.Size and
// Handle.Append/Handle.Size through the same cases. Each case prepares
// the FS, takes the appender, lets another writer change the FS, then
// appends n bytes through the appender. Both APIs must report the same
// sizes and the same error text.
func TestHandleMatchesPathAPI(t *testing.T) {
	const p = "/runs/f/outputs/1_salt.63"
	errAny := errors.New("any error")
	cases := []struct {
		name   string
		before func(fs *FS) // before the appender is taken
		writer func(fs *FS) // another writer, after it is taken
		n      int64
		seen   int64 // size read after the writer, before the append
		size   int64 // size read after the append
		err    error // nil: the append succeeds; errAny: any error
	}{
		{name: "missing file", n: 10, seen: 0, size: 10},
		{
			name:   "created later by another writer",
			writer: func(fs *FS) { mustAppend(t, fs, p, 5) },
			n:      3, seen: 5, size: 8,
		},
		{
			name:   "removed and recreated",
			before: func(fs *FS) { mustAppend(t, fs, p, 10) },
			writer: func(fs *FS) {
				if err := fs.Remove(p); err != nil {
					t.Fatal(err)
				}
				mustAppend(t, fs, p, 7)
			},
			n: 1, seen: 7, size: 8,
		},
		{
			name:   "removed and not recreated",
			before: func(fs *FS) { mustAppend(t, fs, p, 10) },
			writer: func(fs *FS) {
				if err := fs.Remove(p); err != nil {
					t.Fatal(err)
				}
			},
			n: 2, seen: 0, size: 2,
		},
		{
			name:   "path is a directory",
			before: func(fs *FS) { mustMkdir(t, fs, p) },
			n:      1, seen: 0, size: 0, err: ErrIsDir,
		},
		{
			name:   "path becomes a directory",
			writer: func(fs *FS) { mustMkdir(t, fs, p) },
			n:      1, seen: 0, size: 0, err: ErrIsDir,
		},
		{
			name: "content file",
			before: func(fs *FS) {
				if err := fs.WriteString(p, "abc"); err != nil {
					t.Fatal(err)
				}
			},
			n: 1, seen: 3, size: 3, err: errAny,
		},
		{name: "negative size", n: -1, seen: 0, size: 0, err: errAny},
		{
			name:   "parent is a file",
			before: func(fs *FS) { mustAppend(t, fs, "/runs/f/outputs", 1) },
			n:      1, seen: 0, size: 0, err: ErrNotDir,
		},
	}
	apis := []struct {
		name string
		take func(fs *FS) sizeAppender
	}{
		{"path", func(fs *FS) sizeAppender { return pathAPI{fs, p} }},
		{"handle", func(fs *FS) sizeAppender { return fs.Handle(p) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errText []string
			for _, api := range apis {
				fs := New(nil)
				if tc.before != nil {
					tc.before(fs)
				}
				a := api.take(fs)
				a.Size() // resolve before the writer moves anything
				if tc.writer != nil {
					tc.writer(fs)
				}
				if got := a.Size(); got != tc.seen {
					t.Errorf("%s: size after writer = %d, want %d", api.name, got, tc.seen)
				}
				err := a.Append(tc.n)
				switch {
				case tc.err == nil && err != nil:
					t.Errorf("%s: append: %v", api.name, err)
				case tc.err != nil && err == nil:
					t.Errorf("%s: append succeeded, want an error", api.name)
				case tc.err != nil && tc.err != errAny && !errors.Is(err, tc.err):
					t.Errorf("%s: append error %v, want %v", api.name, err, tc.err)
				}
				if err != nil {
					errText = append(errText, err.Error())
				}
				if got := a.Size(); got != tc.size {
					t.Errorf("%s: size after append = %d, want %d", api.name, got, tc.size)
				}
				if got := fs.Size(p); got != tc.size {
					t.Errorf("%s: FS.Size after append = %d, want %d", api.name, got, tc.size)
				}
			}
			if len(errText) == 2 && errText[0] != errText[1] {
				t.Errorf("error text differs: path %q, handle %q", errText[0], errText[1])
			}
		})
	}
}

// TestHandleSeesGrowthWithoutRewalk pins the handle's caching rule: a
// size change through the FS is visible at once, since the handle holds
// the node itself, and an addition elsewhere in the tree makes it walk
// again without losing the node.
func TestHandleSeesGrowthWithoutRewalk(t *testing.T) {
	fs := New(nil)
	h := fs.Handle("/a/b")
	mustAppend(t, fs, "/a/b", 4)
	if got := h.Size(); got != 4 {
		t.Fatalf("size = %d, want 4", got)
	}
	mustAppend(t, fs, "/a/b", 6)
	mustAppend(t, fs, "/a/c", 1)
	if got := h.Size(); got != 10 {
		t.Fatalf("size = %d, want 10", got)
	}
}

func mustAppend(t *testing.T, fs *FS, p string, n int64) {
	t.Helper()
	if err := fs.Append(p, n); err != nil {
		t.Fatal(err)
	}
}

func mustMkdir(t *testing.T, fs *FS, p string) {
	t.Helper()
	if err := fs.MkdirAll(p); err != nil {
		t.Fatal(err)
	}
}
