package snapshot

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Store is where a Chain keeps its containers, one per name. Put is atomic:
// after it returns — or after a crash at any point inside it — the name
// holds either the complete new container or whatever it held before, never
// a torn one. Open and Remove report a missing name as fs.ErrNotExist.
type Store interface {
	Put(name string, write func(io.Writer) error) error
	Open(name string) (io.ReadCloser, error)
	Remove(name string) error
}

// crashPoint is the crash-atomicity failpoint hook: tests set it to a
// function that panics (simulating the process dying) at a named stage of
// the atomic write. Stages, in order: "temp-written" (temp file synced and
// closed, rename not yet issued), "renamed" (rename done, directory not yet
// synced). nil in production.
var crashPoint func(stage string)

func hitCrashPoint(stage string) {
	if crashPoint != nil {
		crashPoint(stage)
	}
}

// FileStore keeps containers as files, names being paths. Put writes to a
// temporary file in the same directory, fsyncs it, renames it over the name,
// and fsyncs the directory so the rename itself is durable. A crash between
// creating the temp file and the rename orphans the temp (that is the point:
// the previous container survives); SweepStaleTemps removes such orphans and
// is run by the restore paths before loading.
type FileStore struct{}

// Put implements Store. Every error, including the ones Close reports at the
// end of a buffered write, is returned.
func (FileStore) Put(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	discard := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return discard(err)
	}
	if err := f.Sync(); err != nil {
		return discard(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	hitCrashPoint("temp-written")
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	hitCrashPoint("renamed")
	return syncDir(dir)
}

// Open implements Store.
func (FileStore) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

// Remove implements Store.
func (FileStore) Remove(path string) error { return os.Remove(path) }

// syncDir makes a just-completed rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// MemStore keeps containers in memory: the store of a chain that must
// outlive the state it checkpoints but not the process (the harness's
// crash and fault decorators). A failed Put leaves the name untouched.
type MemStore struct {
	files map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{files: make(map[string][]byte)} }

// Put implements Store.
func (m *MemStore) Put(name string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	m.files[name] = buf.Bytes()
	return nil
}

// Open implements Store.
func (m *MemStore) Open(name string) (io.ReadCloser, error) {
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Remove implements Store.
func (m *MemStore) Remove(name string) error {
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// WriteFileAtomic checkpoints states into the file at path through
// FileStore.Put: a crash at any point leaves either the previous file intact
// or the new one complete — never a truncated snapshot that Load would
// reject after the old one is already gone.
func WriteFileAtomic(path string, states ...Checkpointer) error {
	return FileStore{}.Put(path, func(w io.Writer) error { return Save(w, states...) })
}

// LoadFile restores states from the snapshot file at path (the read-side
// convenience partner of WriteFileAtomic).
func LoadFile(path string, states ...Restorer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Load(f, states...)
}

// SweepStaleTemps removes the temp files a died-mid-write process left next
// to the snapshot at path: same directory, named after the snapshot (the
// exact pattern FileStore.Put uses, including the delta files' temps), never
// the live snapshot or its deltas themselves. Call it only before any writer
// is live — the startup restore and resume paths do, which is the only time
// an orphan can be told from an in-flight write. Returns the removed file
// names; a missing directory is not an error (nothing to sweep).
func SweepStaleTemps(path string) ([]string, error) {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var removed []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, base) || !strings.Contains(name, ".tmp") {
			continue
		}
		full := filepath.Join(dir, name)
		if err := os.Remove(full); err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	return removed, nil
}
