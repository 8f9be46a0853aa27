package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// lockFileName is the flock guard at the root of a store directory.
const lockFileName = "LOCK"

// dirLock is an exclusive advisory lock on a store directory. Exactly
// one process — daemon or doctor-with-repair or CLI resume — may hold
// it; a second opener fails fast instead of corrupting the journal and
// result files the first is writing. The lock is a kernel flock, so it
// dies with the process: a SIGKILLed daemon leaves no stale lock to
// clean up (the LOCK file remains but is re-acquirable).
type dirLock struct {
	f *os.File
}

// acquireLock takes the exclusive lock of dir, failing fast (no
// blocking) when another process holds it. The holder's pid is written
// into the lock file purely as a diagnostic for the error message and
// `memlife doctor`.
func acquireLock(dir string) (*dirLock, error) {
	path := filepath.Join(dir, lockFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		holder := lockHolder(f)
		f.Close()
		if err == syscall.EWOULDBLOCK {
			return nil, fmt.Errorf("server: store %s is locked by another process%s — a daemon or resume is already writing it; stop it or use a different -store", dir, holder)
		}
		return nil, fmt.Errorf("server: lock store %s: %w", dir, err)
	}
	// Record our pid for diagnostics. Failure to write it is harmless:
	// the flock, not the content, is the guard.
	if err := f.Truncate(0); err == nil {
		_, _ = f.WriteAt([]byte(fmt.Sprintf("%d\n", os.Getpid())), 0)
		_ = f.Sync()
	}
	return &dirLock{f: f}, nil
}

// lockHeld reports whether a live process holds dir's lock, and the
// pid suffix it recorded, without creating or writing the lock file:
// it opens LOCK read-only and only tries the flock. A missing LOCK
// means no daemon holds the store. Closing the probe's descriptor
// drops the flock it may have taken.
func lockHeld(dir string) (held bool, holder string, err error) {
	f, err := os.Open(filepath.Join(dir, lockFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return false, "", nil
	}
	if err != nil {
		return false, "", fmt.Errorf("server: open lock file: %w", err)
	}
	defer f.Close()
	switch err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); {
	case err == syscall.EWOULDBLOCK:
		return true, lockHolder(f), nil
	case err != nil:
		return false, "", fmt.Errorf("server: lock store %s: %w", dir, err)
	}
	return false, "", nil
}

// lockHolder reads the pid a live holder recorded, for error messages.
func lockHolder(f *os.File) string {
	buf := make([]byte, 32)
	n, err := f.ReadAt(buf, 0)
	if n == 0 || (err != nil && n <= 0) {
		return ""
	}
	pid := strings.TrimSpace(string(buf[:n]))
	if pid == "" {
		return ""
	}
	return fmt.Sprintf(" (pid %s)", pid)
}

// Release drops the lock. Safe on nil.
func (l *dirLock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := syscall.Flock(int(l.f.Fd()), syscall.LOCK_UN)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
