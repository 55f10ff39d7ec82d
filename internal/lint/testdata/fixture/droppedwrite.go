package fixture

// Seeded droppederr extension cases: Encode/WriteString coverage and the
// defer-Close-on-a-write-path rule.

type sink struct{}

func (s *sink) Write(p []byte) (int, error)       { return len(p), nil }
func (s *sink) WriteString(x string) (int, error) { return len(x), nil }
func (s *sink) Encode(v any) error                { return nil }
func (s *sink) Close() error                      { return nil }

// deferClosedWriter checks its write errors but defers Close unchecked: the
// close error completes the write path, so the defer silently discards the
// final failure. Violation.
func deferClosedWriter(s *sink, p []byte) error {
	defer s.Close()
	if _, err := s.Write(p); err != nil {
		return err
	}
	return nil
}

// encodeDropped drops an Encode error: violation.
func encodeDropped(s *sink, v any) {
	s.Encode(v)
}

// writeStringDropped drops a WriteString error: violation.
func writeStringDropped(s *sink) {
	s.WriteString("x")
}

type reader struct{}

func (r *reader) Read(p []byte) (int, error) { return 0, nil }
func (r *reader) Close() error               { return nil }

// readOnlyDefer closes a read-side resource by defer: conventional, no
// diagnostic.
func readOnlyDefer(r *reader, p []byte) error {
	defer r.Close()
	_, err := r.Read(p)
	return err
}

// explicitClose checks both the write and the close: no diagnostic.
func explicitClose(s *sink, p []byte) error {
	if _, err := s.Write(p); err != nil {
		return err
	}
	return s.Close()
}

// closeDroppedAfterFlush is mount.WriteFile with the lint audit's winning
// seed: the write and flush errors are checked, then the close — which
// reports the file's last write failure — is dropped. No test injects a
// failing close, so only the analyzer sees it. Violation.
func closeDroppedAfterFlush(s *sink, p []byte) error {
	if _, err := s.Write(p); err != nil {
		_ = s.Close() // the write error is the one to report
		return err
	}
	s.Close()
	return nil
}
