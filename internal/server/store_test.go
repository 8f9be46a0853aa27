package server

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memlife/internal/campaign"
)

func TestStorePutGetRoundTrip(t *testing.T) {
	st, err := openStore(campaign.OSFiles{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "deadbeef01234567"
	if st.Has(key) {
		t.Fatal("fresh store must not have the key")
	}
	if _, err := st.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on missing key: %v, want ErrNotFound", err)
	}
	data := []byte(`{"id":"deadbeef01234567"}` + "\n")
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v, want [%s]", keys, key)
	}
}

func TestStorePutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(campaign.OSFiles{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put("abc123", []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, resultsDirName))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s after successful Put", e.Name())
		}
	}
}

func TestStoreRejectsPathEscapingKeys(t *testing.T) {
	st, err := openStore(campaign.OSFiles{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../evil", "a/b", "UPPER", "x.json", strings.Repeat("a", 65)} {
		if err := st.Put(key, []byte("{}")); err == nil {
			t.Fatalf("Put(%q) must be rejected", key)
		}
		if _, err := st.Get(key); err == nil {
			t.Fatalf("Get(%q) must be rejected", key)
		}
		if st.Has(key) {
			t.Fatalf("Has(%q) must be false", key)
		}
	}
	for _, key := range []string{"abc123", "deadbeef-s5"} {
		if !validKey(key) {
			t.Fatalf("validKey(%q) must be true", key)
		}
	}
}

func TestLockSingleWriter(t *testing.T) {
	dir := t.TempDir()
	l1, err := acquireLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	// flock conflicts across open file descriptions, even in-process.
	if _, err := acquireLock(dir); err == nil {
		t.Fatal("second acquire must fail while the first holds the lock")
	} else if !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second acquire error must say who holds it, got: %v", err)
	}
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	l2, err := acquireLock(dir)
	if err != nil {
		t.Fatalf("lock must be re-acquirable after release: %v", err)
	}
	l2.Release()
}
