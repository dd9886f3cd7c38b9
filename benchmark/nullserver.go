package main

import (
	"bufio"
	"net"
	"sync"

	"repro/internal/kvwire"
)

// nullServer is a kvwire responder that does nothing: it parses each
// request and answers at once, a GET with a value carrying the key's ID,
// everything else with OK (STATS with zeroes). Driving it with a wire
// workload's clients gives the rate at which the load generator itself
// saturates; a wire workload whose throughput is not well under that is
// measuring the generator.
type nullServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startNullServer(valueSize int) (*nullServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &nullServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, nc)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				serveNull(nc, valueSize)
			}()
		}
	}()
	return s, nil
}

func serveNull(nc net.Conn, valueSize int) {
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	if err := kvwire.ReadPreamble(br); err != nil {
		return
	}
	fr := kvwire.NewFrameReader(br)
	bw := bufio.NewWriterSize(nc, 64<<10)
	value := newValueBuf(valueSize)
	var req kvwire.Request
	var out []byte
	for {
		body, err := fr.Next()
		if err != nil {
			return
		}
		if err := req.Parse(body); err != nil {
			return
		}
		switch req.Op {
		case kvwire.OpGet:
			id, _ := parseKeyID(req.Key)
			out = kvwire.AppendValueResponse(out[:0], req.ID, fillValue(value, valueSize, id, 0))
		case kvwire.OpStats:
			out = kvwire.AppendStatsResponse(out[:0], req.ID, &kvwire.Stats{})
		default:
			out = kvwire.AppendOK(out[:0], req.ID)
		}
		if _, err := bw.Write(out); err != nil {
			return
		}
		// Flush when the pipeline is drained, as the real server's writer
		// loop does.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *nullServer) addr() string { return s.ln.Addr().String() }

func (s *nullServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
