package main

import (
	"errors"
	"net"

	"repro/internal/server"
)

// localServer serves a wire workload from internal/server inside this
// process: the smoke test's stand-in for the kvserver binary. Its kill
// closes the listener and abandons the set without Shutdown, so nothing
// is drained, checkpointed or synced, as after kill -9.
type localServer struct {
	ln        net.Listener
	srv       *server.Server
	done      chan error
	replayedN int64
}

func startLocalServer(sp *spec, walDir string) (*localServer, error) {
	set, err := sp.open(walDir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		set.Close()
		return nil, err
	}
	s := &localServer{ln: ln, srv: server.New(set, server.Options{}), done: make(chan error, 1)}
	if set.WALAttached() {
		s.replayedN = set.WALStats().Replayed
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *localServer) addr() string    { return s.ln.Addr().String() }
func (s *localServer) pid() int        { return 0 }
func (s *localServer) replayed() int64 { return s.replayedN }

func (s *localServer) kill() error {
	s.ln.Close()
	if err := <-s.done; err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	return nil
}
