// Package vfs is an in-memory virtual filesystem used by the factory
// simulator.
//
// Bulk scientific data (model outputs, data products) is tracked by size
// only — the simulator never materializes gigabytes of bytes — while small
// text files (run logs, configuration) carry real content so the log
// parser and crawler exercise the same code paths they would against a
// real directory tree. Paths use forward slashes; the root is "/".
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
)

// Common errors returned by FS operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string  // cleaned absolute path
	Name  string  // base name
	Size  int64   // logical size in bytes
	MTime float64 // virtual time of last modification
	IsDir bool
}

// file is a node in the tree.
type file struct {
	info     FileInfo
	content  []byte // only for text files; nil for size-only bulk data
	children map[string]*file
}

// FS is an in-memory filesystem. The zero value is not usable; use New.
type FS struct {
	root *file
	// clock supplies the virtual time for mtimes. It may be nil, in which
	// case mtimes are zero.
	clock func() float64
	// added and removed count node additions and removals anywhere in
	// the tree. A Handle re-walks only when one that can change what its
	// path resolves to has moved since it last resolved.
	added, removed uint64
}

// New creates an empty filesystem. clock, if non-nil, supplies virtual
// timestamps for modification times (typically sim.Engine.Now).
func New(clock func() float64) *FS {
	return &FS{
		root: &file{
			info:     FileInfo{Path: "/", Name: "/", IsDir: true},
			children: make(map[string]*file),
		},
		clock: clock,
	}
}

func (fs *FS) now() float64 {
	if fs.clock == nil {
		return 0
	}
	return fs.clock()
}

// clean normalizes a path to an absolute, slash-separated form.
func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// lookup walks to the node for p, or returns nil.
func (fs *FS) lookup(p string) *file {
	p = clean(p)
	if p == "/" {
		return fs.root
	}
	cur := fs.root
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if cur.children == nil {
			return nil
		}
		next, ok := cur.children[part]
		if !ok {
			return nil
		}
		cur = next
	}
	return cur
}

// MkdirAll creates a directory and all missing parents. Creating an
// existing directory is a no-op; a path component that is a regular file
// is an error.
func (fs *FS) MkdirAll(p string) error {
	p = clean(p)
	if p == "/" {
		return nil
	}
	cur := fs.root
	walked := ""
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		walked += "/" + part
		next, ok := cur.children[part]
		if !ok {
			next = &file{
				info:     FileInfo{Path: walked, Name: part, IsDir: true, MTime: fs.now()},
				children: make(map[string]*file),
			}
			cur.children[part] = next
			fs.added++
		} else if !next.info.IsDir {
			return fmt.Errorf("mkdir %s: %w", walked, ErrNotDir)
		}
		cur = next
	}
	return nil
}

// create makes a regular file node, creating parents as needed.
func (fs *FS) create(p string) (*file, error) {
	p = clean(p)
	dir, name := path.Split(p)
	if name == "" {
		return nil, fmt.Errorf("create %s: %w", p, ErrIsDir)
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	parent := fs.lookup(dir)
	if existing, ok := parent.children[name]; ok {
		if existing.info.IsDir {
			return nil, fmt.Errorf("create %s: %w", p, ErrIsDir)
		}
		return nil, fmt.Errorf("create %s: %w", p, ErrExist)
	}
	f := &file{info: FileInfo{Path: p, Name: name, MTime: fs.now()}}
	parent.children[name] = f
	fs.added++
	return f, nil
}

// Create makes an empty regular file (size-only). Parents are created as
// needed. It is an error if the file already exists.
func (fs *FS) Create(p string) error {
	_, err := fs.create(p)
	return err
}

// Append grows a size-only file by n bytes, creating it if absent.
func (fs *FS) Append(p string, n int64) error {
	return fs.grow(p, fs.lookup(p), n)
}

// grow is Append with the lookup already done: f is p's node, or nil
// when p does not exist.
func (fs *FS) grow(p string, f *file, n int64) error {
	if n < 0 {
		return fmt.Errorf("append %s: negative size %d", p, n)
	}
	if f == nil {
		var err error
		f, err = fs.create(p)
		if err != nil {
			return err
		}
	}
	if f.info.IsDir {
		return fmt.Errorf("append %s: %w", p, ErrIsDir)
	}
	if f.content != nil {
		return fmt.Errorf("append %s: size-only append to content file", p)
	}
	f.info.Size += n
	f.info.MTime = fs.now()
	return nil
}

// WriteString replaces the content of a text file, creating it if absent.
func (fs *FS) WriteString(p, s string) error {
	f := fs.lookup(p)
	if f == nil {
		var err error
		f, err = fs.create(p)
		if err != nil {
			return err
		}
	}
	if f.info.IsDir {
		return fmt.Errorf("write %s: %w", p, ErrIsDir)
	}
	f.content = []byte(s)
	f.info.Size = int64(len(f.content))
	f.info.MTime = fs.now()
	return nil
}

// AppendString appends text to a text file, creating it if absent.
func (fs *FS) AppendString(p, s string) error {
	f := fs.lookup(p)
	if f == nil {
		var err error
		f, err = fs.create(p)
		if err != nil {
			return err
		}
		f.content = []byte{}
	}
	if f.info.IsDir {
		return fmt.Errorf("append %s: %w", p, ErrIsDir)
	}
	if f.content == nil && f.info.Size > 0 {
		return fmt.Errorf("append %s: text append to size-only file", p)
	}
	f.content = append(f.content, s...)
	f.info.Size = int64(len(f.content))
	f.info.MTime = fs.now()
	return nil
}

// ReadFile returns the content of a text file.
func (fs *FS) ReadFile(p string) (string, error) {
	f := fs.lookup(p)
	if f == nil {
		return "", fmt.Errorf("read %s: %w", p, ErrNotExist)
	}
	if f.info.IsDir {
		return "", fmt.Errorf("read %s: %w", p, ErrIsDir)
	}
	if f.content == nil {
		return "", fmt.Errorf("read %s: size-only file has no content", p)
	}
	return string(f.content), nil
}

// Stat returns metadata for a path.
func (fs *FS) Stat(p string) (FileInfo, error) {
	f := fs.lookup(p)
	if f == nil {
		return FileInfo{}, fmt.Errorf("stat %s: %w", clean(p), ErrNotExist)
	}
	return f.info, nil
}

// Exists reports whether the path exists.
func (fs *FS) Exists(p string) bool { return fs.lookup(p) != nil }

// Size returns the logical size of a file, or 0 if it does not exist.
func (fs *FS) Size(p string) int64 { return sizeOf(fs.lookup(p)) }

func sizeOf(f *file) int64 {
	if f == nil || f.info.IsDir {
		return 0
	}
	return f.info.Size
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(p string) error {
	p = clean(p)
	if p == "/" {
		return errors.New("vfs: cannot remove root")
	}
	f := fs.lookup(p)
	if f == nil {
		return fmt.Errorf("remove %s: %w", p, ErrNotExist)
	}
	if f.info.IsDir && len(f.children) > 0 {
		return fmt.Errorf("remove %s: directory not empty", p)
	}
	parent := fs.lookup(path.Dir(p))
	delete(parent.children, f.info.Name)
	fs.removed++
	return nil
}

// Handle is a path resolved against one FS. It caches the path's node
// and walks the tree again only when the FS changed shape in a way that
// can change the answer: a node it found stays valid until some node is
// removed (a node is replaced only by removing it first), and a path it
// did not find can appear only when some node is added. A watcher that
// reads the same files on every poll pays a counter comparison instead
// of a path walk.
type Handle struct {
	fs   *FS
	path string
	f    *file  // nil when path did not resolve
	seen uint64 // fs.removed when f is non-nil, else fs.added
}

// Handle returns a handle on p. The path need not exist yet.
func (fs *FS) Handle(p string) *Handle {
	h := &Handle{fs: fs, path: p}
	h.resolve()
	return h
}

func (h *Handle) resolve() {
	h.f = h.fs.lookup(h.path)
	if h.f != nil {
		h.seen = h.fs.removed
	} else {
		h.seen = h.fs.added
	}
}

func (h *Handle) node() *file {
	if h.f != nil && h.seen != h.fs.removed || h.f == nil && h.seen != h.fs.added {
		h.resolve()
	}
	return h.f
}

// Size is FS.Size of the handle's path.
func (h *Handle) Size() int64 { return sizeOf(h.node()) }

// Append is FS.Append on the handle's path.
func (h *Handle) Append(n int64) error {
	return h.fs.grow(h.path, h.node(), n)
}

// ReadDir lists the entries of a directory in name order.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	f := fs.lookup(p)
	if f == nil {
		return nil, fmt.Errorf("readdir %s: %w", clean(p), ErrNotExist)
	}
	if !f.info.IsDir {
		return nil, fmt.Errorf("readdir %s: %w", clean(p), ErrNotDir)
	}
	names := make([]string, 0, len(f.children))
	for name := range f.children {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]FileInfo, len(names))
	for i, name := range names {
		infos[i] = f.children[name].info
	}
	return infos, nil
}

// Walk visits every file and directory under root in depth-first,
// name-sorted order, calling fn for each. Returning a non-nil error from fn
// stops the walk and propagates the error.
func (fs *FS) Walk(root string, fn func(info FileInfo) error) error {
	f := fs.lookup(root)
	if f == nil {
		return fmt.Errorf("walk %s: %w", clean(root), ErrNotExist)
	}
	return walk(f, fn)
}

func walk(f *file, fn func(info FileInfo) error) error {
	if err := fn(f.info); err != nil {
		return err
	}
	if !f.info.IsDir {
		return nil
	}
	names := make([]string, 0, len(f.children))
	for name := range f.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := walk(f.children[name], fn); err != nil {
			return err
		}
	}
	return nil
}

// Glob returns the paths of files (not directories) whose base name matches
// the pattern (path.Match syntax) anywhere under root, sorted.
func (fs *FS) Glob(root, pattern string) ([]string, error) {
	var out []string
	err := fs.Walk(root, func(info FileInfo) error {
		if info.IsDir {
			return nil
		}
		ok, err := path.Match(pattern, info.Name)
		if err != nil {
			return err
		}
		if ok {
			out = append(out, info.Path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// TreeSize returns the total size in bytes of all regular files under root.
func (fs *FS) TreeSize(root string) int64 {
	var total int64
	_ = fs.Walk(root, func(info FileInfo) error {
		if !info.IsDir {
			total += info.Size
		}
		return nil
	})
	return total
}
