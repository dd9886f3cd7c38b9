package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/client"
)

// Cache-tier report against a running kvserver:
//
//	kvcli cachestats <addr>
//
// One STATS round trip, printed as a single table covering every DRAM
// tier in front of flash: the index-page cache (hit ratio plus TinyLFU
// admission rejects), the hot-value cache, and the records prefix scans
// served from a data page they had already read. Ratios are since
// server start or the last stats reset.
// Against an older server the new counters decode as zero (the wire
// STATS payload is field-count versioned), so the table just reports
// idle tiers rather than failing.
func runCacheStats(addr string) error {
	c, err := client.Dial(client.Options{Addr: addr})
	if err != nil {
		return err
	}
	defer c.Close()

	s, err := c.Stats()
	if err != nil {
		return err
	}

	ratio := func(hits, misses uint64) string {
		total := hits + misses
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "TIER\tHITS\tMISSES\tHIT RATIO\tNOTES")
	fmt.Fprintf(w, "index pages\t%d\t%d\t%s\t%d admission reject(s)\n",
		s.CacheHits, s.CacheMisses, ratio(s.CacheHits, s.CacheMisses),
		s.AdmissionRejects)
	fmt.Fprintf(w, "hot values\t%d\t%d\t%s\t%s\n",
		s.ValueCacheHits, s.ValueCacheMisses,
		ratio(s.ValueCacheHits, s.ValueCacheMisses),
		enabledNote(s.ValueCacheHits+s.ValueCacheMisses, "value tier off or idle"))
	fmt.Fprintf(w, "scan prefetch\t%d\t-\t-\t%s\n",
		s.PrefetchHits,
		enabledNote(s.PrefetchHits, "no scans"))
	if err := w.Flush(); err != nil {
		return err
	}

	// Prefetch hits are flash reads a scan did NOT issue; fold them into
	// the flash-read picture so the three rows share a denominator.
	saved := s.CacheHits + s.ValueCacheHits + s.PrefetchHits
	fmt.Printf("flash reads issued: %d; reads avoided by DRAM tiers: %d\n",
		s.FlashReads, saved)
	return nil
}

func enabledNote(activity uint64, idle string) string {
	if activity == 0 {
		return idle
	}
	return ""
}
