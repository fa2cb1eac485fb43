package serve

// SetServiceTimeForTest seeds the per-kind service-time estimate feeding
// the adaptive Retry-After hint, so tests can exercise the hint's scaling
// without running multi-second jobs.
func (s *Server) SetServiceTimeForTest(kind string, secs float64) {
	s.svcMu.Lock()
	s.svcSecs[kind] = secs
	s.svcMu.Unlock()
}

// OnRenderForTest registers fn to be called with the key of every render
// serveBody actually runs (not those answered from retained bytes). Set
// before the server takes traffic.
func (s *Server) OnRenderForTest(fn func(key string)) { s.onRender = fn }
