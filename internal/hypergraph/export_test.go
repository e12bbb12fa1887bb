package hypergraph

// BetaCore exposes the worklist elimination's stuck nodes to the external
// oracle tests.
func (h *Hypergraph) BetaCore() []int { return h.betaCore() }
