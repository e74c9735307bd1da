package artifact

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store errors. Callers branch on these with errors.Is: a miss means
// "compute it", a corrupt entry means "this file exists but cannot be
// trusted" (a self-healing cache recomputes and overwrites it), anything
// else is a real I/O failure to surface.
var (
	// ErrNotFound reports that the store has no entry at the key.
	ErrNotFound = errors.New("artifact: not in store")
	// ErrCorrupt reports an entry whose bytes do not decode as a valid
	// artifact: truncated by a crash, damaged on disk, or written by an
	// incompatible format version.
	ErrCorrupt = errors.New("artifact: corrupt store entry")
)

// storeExt is the on-disk entry suffix; tmpMark tags in-flight temp files so
// Sweep can tell an interrupted write from a committed entry.
const (
	storeExt = ".json"
	tmpMark  = ".tmp-"
)

// Store is a content-addressed artifact store: one directory holding one
// complete (shard 0 of 1) artifact per 64-hex key, named <key>.json. The
// rhvpp campaign files one entry per study, keyed by a digest of (options
// fingerprint, study); whole-campaign entries that older builds filed at the
// bare fingerprint are no longer read. Writes are atomic — the JSON lands in a same-directory
// temp file and is renamed into place only when complete — so readers never
// observe a partial entry and a crash leaves only a *.tmp-* file, which the
// next OpenStore sweeps away. Everything read back is treated as untrusted
// input: Get re-validates the envelope and reports damage as ErrCorrupt
// rather than trusting (or crashing on) whatever is on disk.
//
// Multiple processes may share a directory: concurrent Puts of the same key
// are last-writer-wins at the rename, and a Get concurrent with a Put sees
// either the old complete entry or the new one, never a torn mix. Open
// stores before serving traffic, though — OpenStore's sweep would remove a
// temp file another process is still writing.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir and sweeps any
// temp files left by interrupted writers.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: opening store: %w", err)
	}
	s := &Store{dir: dir}
	if _, err := s.Sweep(); err != nil {
		return nil, err
	}
	return s, nil
}

// validKey enforces the key shape — 64 lowercase hex characters, a SHA-256
// digest — so a key can never traverse out of the store directory or
// collide with a temp-file name.
func validKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("artifact: store key %q is not a SHA-256 hex digest", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("artifact: store key %q is not a SHA-256 hex digest", key)
		}
	}
	return nil
}

// Path returns the entry file path for a key (whether or not it exists).
func (s *Store) Path(key string) string { return filepath.Join(s.dir, key+storeExt) }

// Get decodes the entry at key. A missing entry is ErrNotFound; an entry
// that exists but does not decode as a complete single-shard artifact is
// ErrCorrupt (with the underlying reason attached).
func (s *Store) Get(key string) (*Artifact, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	fh, err := os.Open(s.Path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("artifact: reading store entry %s: %w", key, err)
	}
	defer fh.Close() //detlint:ignore sinkerr read-only descriptor, close cannot lose written data
	a, err := Decode(fh)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	if a.Of != 1 {
		return nil, fmt.Errorf("%w: %s: entry is shard %d of %d, not a complete shard set",
			ErrCorrupt, key, a.Shard, a.Of)
	}
	return a, nil
}

// Put writes the artifact at key atomically: encode into a same-directory
// temp file, then rename over any existing entry.
func (s *Store) Put(key string, a *Artifact) error {
	if err := validKey(key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, key+tmpMark+"*")
	if err != nil {
		return fmt.Errorf("artifact: writing store entry %s: %w", key, err)
	}
	defer os.Remove(tmp.Name()) //detlint:ignore sinkerr best-effort temp cleanup, a no-op after a successful rename
	if err := Encode(tmp, a); err != nil {
		tmp.Close() //detlint:ignore sinkerr already failing, the encode error is the one to surface
		return fmt.Errorf("artifact: writing store entry %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("artifact: writing store entry %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		return fmt.Errorf("artifact: committing store entry %s: %w", key, err)
	}
	return nil
}

// Keys lists the committed entry keys in sorted order. Temp files
// and foreign files in the directory are ignored.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: listing store: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, storeExt) {
			continue
		}
		key := strings.TrimSuffix(name, storeExt)
		if validKey(key) != nil {
			continue // temp files (key.tmp-XXX) and foreign files
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys, nil
}

// Sweep removes temp files left by writers that died before their rename —
// the only garbage an atomic-rename store can accumulate — and reports how
// many it collected. Committed entries are never touched.
func (s *Store) Sweep() (removed int, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("artifact: sweeping store: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.Contains(e.Name(), tmpMark) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
			return removed, fmt.Errorf("artifact: sweeping store: %w", err)
		}
		removed++
	}
	return removed, nil
}
