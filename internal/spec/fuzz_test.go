package spec

import "testing"

// crashSpecs passed validation once and then killed the process: a
// one-level minimum range width panicked in the crossbar, and a
// trillion-level device asked for an 8 TB level table. Both are
// committed to the FuzzResolveBytes corpus too.
var crashSpecs = []string{
	`{"version":1,"fixture":{"name":"lenet"},"scenario":"ST+AT","run":{"fast":true},"lifetime":{"max_cycles":2,"eval_n":64,"burn_in_stress":100000,"mapping":{"min_levels":1}}}`,
	`{"version":1,"device":{"levels":1000000000000}}`,
}

// FuzzResolveBytes feeds arbitrary documents to the resolver the daemon
// exposes over HTTP. The seed corpus (testdata/fuzz/FuzzResolveBytes)
// holds every example scenario, the crash specs and truncated or
// malformed documents. Contract: ResolveBytes never panics, and any
// document it accepts is a fixed point — its Dump resolves again to the
// same Fingerprint.
func FuzzResolveBytes(f *testing.F) {
	for _, doc := range crashSpecs {
		if _, err := ResolveBytes([]byte(doc), Overrides{}); err == nil {
			f.Fatalf("crash spec resolved without error: %s", doc)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ResolveBytes(raw, Overrides{})
		if err != nil {
			return
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("resolved spec has no fingerprint: %v", err)
		}
		dump, err := s.Dump()
		if err != nil {
			t.Fatalf("resolved spec does not dump: %v", err)
		}
		back, err := ResolveBytes(dump, Overrides{})
		if err != nil {
			t.Fatalf("dumped spec does not resolve: %v\n%s", err, dump)
		}
		fp2, err := back.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp2 != fp {
			t.Fatalf("dump round trip changed the fingerprint: %s -> %s\n%s", fp, fp2, dump)
		}
	})
}
