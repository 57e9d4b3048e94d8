// Package fsfetch adapts a directory tree — a local disk cache, an
// NFS mount, a FUSE-mounted object store — to the fetch fabric's
// Fetcher and BatchFetcher interfaces and their lent-buffer forms,
// IntoFetcher and BatchIntoFetcher. Each ID maps to one file under a
// root directory through a printf-style pattern, and a fetch is a
// bounded whole-file read of the raw bytes.
//
// The adapter is deliberately synchronous: filesystem reads have no
// cancellable wire to hang on, so ctx is honoured at the boundaries —
// checked before each file is opened and between the files of a batch
// — which keeps hedge losers and expired per-attempt budgets from
// queueing further disk work while letting an in-progress read of one
// file run to completion (they are short; the bound caps them).
//
// There is one file reader: the file is stat'd, the destination grown
// once by its size, and the bytes read by one io.ReadFull into the grown
// tail — kernel to destination, no buffer in between. With a buffer
// lent (FetchInto, FetchBatchInto: the engine lends the request's own
// reply buffer, or a speculative worker's scratch) that is the payload's
// only slice and it is copied once more, into the cache; with none
// (Fetch, FetchBatch) the destination is a fresh slice the Item keeps,
// which a copying cache copies again and the byte views a third time.
package fsfetch

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"context"

	"repro/prefetcher/fetch"
)

// DefaultMaxFileBytes bounds a single object read when
// Config.MaxFileBytes is 0.
const DefaultMaxFileBytes = 64 << 20

// ErrTooLarge reports a file whose size exceeds the configured bound.
var ErrTooLarge = errors.New("fsfetch: file exceeds the configured size bound")

// Config describes one filesystem-backed object store.
type Config struct {
	// Root is the directory all object paths resolve under. Required;
	// it must exist and be a directory when New runs.
	Root string
	// Pattern maps an ID to a path relative to Root via fmt.Sprintf
	// with exactly one %d verb (e.g. "objects/%d.bin" or the default
	// "%d"). The expansion must stay inside Root — patterns that
	// escape via ".." are rejected per fetch.
	Pattern string
	// MaxFileBytes bounds each object read (0 means
	// DefaultMaxFileBytes). Files larger than the bound fail with
	// ErrTooLarge rather than truncating silently.
	MaxFileBytes int64
}

// Store is a filesystem-backed fetch.Fetcher / fetch.BatchFetcher.
// It is stateless beyond its configuration and safe for concurrent
// use.
type Store struct {
	root    string
	pattern string
	maxFile int64
}

// New validates cfg and returns a Store. The root must exist so that
// misconfiguration surfaces at wiring time, not as per-key fetch
// errors deep inside a running engine.
func New(cfg Config) (*Store, error) {
	if cfg.Root == "" {
		return nil, errors.New("fsfetch: Config.Root is required")
	}
	info, err := os.Stat(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("fsfetch: root: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("fsfetch: root %q is not a directory", cfg.Root)
	}
	pattern := cfg.Pattern
	if pattern == "" {
		pattern = "%d"
	}
	if strings.Count(pattern, "%") != 1 || !strings.Contains(pattern, "%d") {
		return nil, fmt.Errorf("fsfetch: Pattern %q must contain exactly one %%d verb", cfg.Pattern)
	}
	if cfg.MaxFileBytes < 0 {
		return nil, errors.New("fsfetch: MaxFileBytes must be >= 0")
	}
	maxFile := cfg.MaxFileBytes
	if maxFile == 0 {
		maxFile = DefaultMaxFileBytes
	}
	return &Store{
		root:    filepath.Clean(cfg.Root),
		pattern: pattern,
		maxFile: maxFile,
	}, nil
}

// path resolves id to its absolute path, refusing expansions that
// escape the root.
func (s *Store) path(id fetch.ID) (string, error) {
	rel := fmt.Sprintf(s.pattern, int64(id))
	p := filepath.Join(s.root, rel)
	if p != s.root && !strings.HasPrefix(p, s.root+string(filepath.Separator)) {
		return "", fmt.Errorf("fsfetch: id %d resolves outside the root", id)
	}
	return p, nil
}

// Fetch implements fetch.Fetcher: one bounded whole-file read, into a
// slice of its own that the Item keeps (FetchInto with no buffer lent).
// A missing file surfaces as fs.ErrNotExist (wrapped), so callers can
// errors.Is for it.
func (s *Store) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	data, err := s.FetchInto(ctx, id, nil)
	if err != nil {
		return fetch.Item{}, err
	}
	return fetch.Item{ID: id, Size: float64(len(data)), Data: data}, nil
}

// FetchInto implements fetch.IntoFetcher: the file's bytes appended to
// dst, which comes back at its original length on any error.
func (s *Store) FetchInto(ctx context.Context, id fetch.ID, dst []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	p, err := s.path(id)
	if err != nil {
		return dst, err
	}
	return s.readBounded(p, dst)
}

// FetchBatch implements fetch.BatchFetcher: the ids are read
// sequentially (one spindle, one pass), with ctx consulted between
// files so an abandoned batch stops issuing reads. Any failed read
// fails the whole batch, per the BatchFetcher contract; the fabric's
// demand path degrades to per-key fallbacks from there.
func (s *Store) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	out := make([]fetch.Item, len(ids))
	for i, id := range ids {
		item, err := s.Fetch(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("fsfetch: batch id %d: %w", id, err)
		}
		out[i] = item
	}
	return out, nil
}

// FetchBatchInto implements fetch.BatchIntoFetcher: FetchBatch with the
// files appended to dst back to back and one length per id to lens.
func (s *Store) FetchBatchInto(ctx context.Context, ids []fetch.ID, dst []byte, lens []int) ([]byte, []int, error) {
	out, ls := dst, lens
	for _, id := range ids {
		n := len(out)
		var err error
		if out, err = s.FetchInto(ctx, id, out); err != nil {
			return dst, lens, fmt.Errorf("fsfetch: batch id %d: %w", id, err)
		}
		ls = append(ls, len(out)-n)
	}
	return out, ls, nil
}

// readBounded appends one file's bytes to dst: stat, grow dst once by
// the file's size, read into the grown tail.
func (s *Store) readBounded(p string, dst []byte) ([]byte, error) {
	f, err := os.Open(p)
	if err != nil {
		return dst, fmt.Errorf("fsfetch: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return dst, fmt.Errorf("fsfetch: %w", err)
	}
	if info.Mode()&fs.ModeType != 0 {
		return dst, fmt.Errorf("fsfetch: %q is not a regular file", p)
	}
	n := info.Size()
	if n > s.maxFile {
		return dst, fmt.Errorf("%w: %q is %d bytes (max %d)", ErrTooLarge, p, n, s.maxFile)
	}
	out := slices.Grow(dst, int(n))[:len(dst)+int(n)]
	if _, err := io.ReadFull(f, out[len(dst):]); err != nil {
		return dst, fmt.Errorf("fsfetch: reading %q: %w", p, err)
	}
	return out, nil
}
