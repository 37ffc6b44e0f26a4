package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// durabilityDrill closes write-mix: it kill -9s the server and restarts it
// over the same data dir. The recovered epoch must be at least the last
// acknowledged one, and a reference solve taken before the kill must return
// the same answer after it. It returns the restarted server.
func (rs *runState) durabilityDrill(srv *server) (*server, error) {
	var st struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := srv.call("GET", "/v1/stats", nil, &st); err != nil {
		return srv, err
	}
	// Every write has been answered by now, so the live epoch is the last
	// acknowledged one.
	acked := st.Epoch
	ref := rs.refSolve()
	var before solveAnswer
	if err := srv.call("POST", "/v1/mincost", ref.single(), &before); err != nil {
		return srv, fmt.Errorf("reference solve: %w", err)
	}
	srv.kill()
	t0 := time.Now()
	srv, err := startServer(rs.o.serverBin, filepath.Join(rs.dir, "server.log"), connections, -1, rs.serverFlags(rs.dataDir)...)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	if err := srv.waitReady(60 * time.Second); err != nil {
		return srv, fmt.Errorf("restart: %w", err)
	}
	rs.values["wal.recovery_s"] = time.Since(t0).Seconds()
	if err := srv.call("GET", "/v1/stats", nil, &st); err != nil {
		return srv, err
	}
	var after solveAnswer
	if err := srv.call("POST", "/v1/mincost", ref.single(), &after); err != nil {
		return srv, fmt.Errorf("reference solve after restart: %w", err)
	}
	if st.Epoch < acked {
		rs.wrong = append(rs.wrong, fmt.Sprintf("durability drill: recovered epoch %d < acknowledged %d", st.Epoch, acked))
	}
	if !sameAnswer(before, after) {
		rs.wrong = append(rs.wrong, fmt.Sprintf("durability drill: reference solve changed across restart: %+v vs %+v", before, after))
	}
	fmt.Printf("# durability drill: acked epoch %d, recovered epoch %d, recovery %.3fs\n", acked, st.Epoch, rs.values["wal.recovery_s"])
	return srv, nil
}

// refSolve is the drill's reference MinCost: the first hot read target.
func (rs *runState) refSolve() solveItem {
	for _, r := range rs.reqs {
		if r.op == opMinCost {
			return r.items[0]
		}
	}
	return solveItem{Op: "mincost", Target: 0, Tau: tauMin}
}

// sameAnswer compares strategy, cost and hits bit for bit.
func sameAnswer(a, b solveAnswer) bool {
	if len(a.Strategy) != len(b.Strategy) || a.Hits != b.Hits || a.BaseHits != b.BaseHits ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return false
	}
	for i := range a.Strategy {
		if math.Float64bits(a.Strategy[i]) != math.Float64bits(b.Strategy[i]) {
			return false
		}
	}
	return true
}
