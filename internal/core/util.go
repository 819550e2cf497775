package core

import (
	"crypto/rand"
	"encoding/hex"
	"os"
	"path/filepath"

	"taskvine/internal/intern"
	"taskvine/internal/protocol"
	"taskvine/internal/replica"
)

// readLocal reads a manager-side file's content. Directory-valued local
// files cannot be fetched as flat bytes.
func readLocal(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// writeFileAtomic writes data to path via a temporary sibling and rename,
// so readers of the shared filesystem never observe a torn output.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".vine-out-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		// The write error is what the caller needs; the temp file is
		// discarded regardless.
		_ = tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// copyFileAtomic streams src into path via a temporary sibling and rename —
// writeFileAtomic for content that lives on disk (a fetch spool) instead of
// in memory.
func copyFileAtomic(path, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".vine-out-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = protocol.CopyBuffer(tmp, in)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// fh returns a file's handle in the manager's tables, interning the ID on
// first sight: the one crossing from the name-keyed registry and wire into
// the handle-keyed replica and transfer tables.
func (m *Manager) fh(id string) replica.FileH { return m.names.Files.Intern(id) }

// fileID returns the ID a file handle was interned from.
func (m *Manager) fileID(h replica.FileH) string { return m.names.Files.Name(h) }

// wh returns the handle of a worker ID named by a message; registered
// workers already hold theirs.
func (m *Manager) wh(id string) replica.WorkerH {
	if w := m.workers[id]; w != nil {
		return w.h
	}
	return m.names.Workers.Intern(id)
}

// workerAt returns the worker registered under handle h, or nil.
func (m *Manager) workerAt(h replica.WorkerH) *workerConn {
	if int(h) >= len(m.byHandle) {
		return nil
	}
	return m.byHandle[h]
}

// startTr records a supervised transfer and names it on the wire with a
// fresh UUID, which the destination echoes in its cache-update.
func (m *Manager) startTr(f replica.FileH, src replica.Source, w *workerConn) (replica.Transfer, string) {
	tr := m.trs.Start(f, src, w.h)
	id := randomUUID()
	m.transferIDs[id] = tr.ID
	slot := int32(uint32(tr.ID))
	m.transferUUIDs = intern.Grow(m.transferUUIDs, slot)
	m.transferUUIDs[slot] = id
	return tr, id
}

// completeTr ends the transfer a cache-update names by UUID.
func (m *Manager) completeTr(uuid string) (replica.Transfer, bool) {
	id, ok := m.transferIDs[uuid]
	if !ok {
		return replica.Transfer{}, false
	}
	delete(m.transferIDs, uuid)
	return m.trs.Complete(id)
}

// endTr ends a transfer the manager cancelled itself.
func (m *Manager) endTr(tr replica.Transfer) {
	delete(m.transferIDs, m.transferUUID(tr))
	m.trs.Complete(tr.ID)
}

// transferUUID returns the UUID a live transfer carries on the wire.
func (m *Manager) transferUUID(tr replica.Transfer) string {
	return m.transferUUIDs[uint32(tr.ID)]
}

// randomUUID returns a version 4 UUID for a transfer's wire ID.
func randomUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("core: crypto/rand unavailable: " + err.Error())
	}
	// RFC 4122 version 4 variant bits, for operator familiarity.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	// Format 8-4-4-4-12 hex digits in place: one allocation, the string.
	var s [36]byte
	hex.Encode(s[0:8], b[0:4])
	s[8] = '-'
	hex.Encode(s[9:13], b[4:6])
	s[13] = '-'
	hex.Encode(s[14:18], b[6:8])
	s[18] = '-'
	hex.Encode(s[19:23], b[8:10])
	s[23] = '-'
	hex.Encode(s[24:36], b[10:16])
	return string(s[:])
}
