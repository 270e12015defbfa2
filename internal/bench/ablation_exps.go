package bench

import (
	"fmt"
	"math/rand"

	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/innodb"
	"share/internal/linkbench"
	"share/internal/sim"
	"share/internal/ssd"
	"share/internal/stats"
	"share/internal/ycsb"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func init() {
	register(Experiment{
		ID: "abl-sharetable",
		Title: "Ablation: bounded reverse-mapping (share) table size — forced copies " +
			"when the OpenSSD's 250/500-entry budget is exceeded",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb := stats.NewTable("Table cap", "OPS", "Share pairs", "Forced copies", "Forced %")
			for _, cap := range []int{64, 250, 500, 0} {
				dev, task, err := newDataDevice(p, "openssd")
				if err != nil {
					return "", err
				}
				dev.FTLForTest().SetShareTableCap(cap)
				fs, err := fsim.Format(task, dev, 256)
				if err != nil {
					return "", err
				}
				st, err := couch.Open(task, fs, couch.Config{
					ShareMode: true, BatchSize: 16,
					DocCacheEntries: scaled(paperYCSBRecords, p.Scale) / 10,
				})
				if err != nil {
					return "", err
				}
				cfg := ycsb.Config{
					Records: scaled(paperYCSBRecords, p.Scale), ValueSize: 4000,
					Ops: scaled(paperYCSBOps, p.Scale), Workload: ycsb.WorkloadF, Seed: p.Seed,
				}
				if err := ycsb.Load(task, st, cfg); err != nil {
					return "", err
				}
				dev.ResetStats()
				res, err := ycsb.Run(task, st, cfg)
				if err != nil {
					return "", err
				}
				fst := dev.Stats().FTL
				total := fst.SharePairs + fst.ForcedCopies
				pct := 0.0
				if total > 0 {
					pct = 100 * float64(fst.ForcedCopies) / float64(total)
				}
				capLabel := fmt.Sprintf("%d", cap)
				if cap == 0 {
					capLabel = "unlimited"
				}
				tb.AddRow(capLabel, fmtThroughput(res.Throughput),
					fst.SharePairs, fst.ForcedCopies, fmt.Sprintf("%.1f%%", pct))
				r.Metric("ops_cap_"+capLabel, res.Throughput, "ops/s")
				r.Metric("forced_pct_cap_"+capLabel, pct, "%")
			}
			return tb.String() + "\nSmaller tables degrade SHAREs into physical copies between\nmapping checkpoints; the paper sized 250 (4KB) / 500 (8KB) entries.\n", nil
		},
	})

	register(Experiment{
		ID:    "abl-batch",
		Title: "Ablation: batched vs per-pair SHARE commands (round trips and delta-log programs)",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			pairsN := 512
			tb := stats.NewTable("Issue", "Commands", "Delta-log pages", "Elapsed (ms)")
			for _, batched := range []bool{true, false} {
				cfg := ssd.DefaultConfig(256)
				dev, err := ssd.New("dev", cfg)
				if err != nil {
					return "", err
				}
				task := sim.NewSoloTask("t")
				buf := make([]byte, dev.PageSize())
				var pairs []ssd.Pair
				for i := 0; i < pairsN; i++ {
					if err := dev.WritePage(task, uint32(10000+i), buf); err != nil {
						return "", err
					}
					pairs = append(pairs, ssd.Pair{Dst: uint32(i), Src: uint32(10000 + i), Len: 1})
				}
				if err := dev.Flush(task); err != nil {
					return "", err
				}
				dev.ResetStats()
				start := task.Now()
				if batched {
					if err := dev.ShareAll(task, pairs); err != nil {
						return "", err
					}
				} else {
					for _, pr := range pairs {
						if err := dev.Share(task, []ssd.Pair{pr}); err != nil {
							return "", err
						}
					}
				}
				st := dev.Stats().FTL
				label := "per-pair"
				if batched {
					label = "batched"
				}
				elapsedMS := float64(task.Now()-start) / float64(sim.Millisecond)
				tb.AddRow(label, st.Shares, st.LogPagesWritten,
					fmt.Sprintf("%.2f", elapsedMS))
				r.Metric(label+"_commands", float64(st.Shares), "cmds")
				r.Metric(label+"_log_pages", float64(st.LogPagesWritten), "pages")
				r.Metric(label+"_elapsed", elapsedMS, "ms")
				r.Device(label, dev)
			}
			return tb.String() + "\nBatching amortizes both the command round trip and the\nmapping-delta page program (§3.2).\n", nil
		},
	})

	register(Experiment{
		ID: "abl-atomic",
		Title: "Ablation: SHARE vs the atomic-write FTL baseline (§6.1) vs doublewrite " +
			"on LinkBench",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb := stats.NewTable("Mode", "Throughput (tps)", "Host writes", "GC events")
			for _, mode := range []innodb.FlushMode{innodb.DWBOn, innodb.AtomicWrite, innodb.Share} {
				res, rig, err := runLink(p, mode, 4096, paperBufferMB)
				if err != nil {
					return "", err
				}
				st := rig.dev.Stats()
				tb.AddRow(mode.String(), fmtThroughput(res.Throughput),
					st.FTL.HostWrites, st.FTL.GCEvents)
				r.Metric(mode.String()+"_tps", res.Throughput, "tps")
				r.Metric(mode.String()+"_host_writes", float64(st.FTL.HostWrites), "pages")
				r.Device(mode.String(), rig.dev)
			}
			return tb.String() +
				"\nThe atomic-write FTL matches SHARE for in-place engines like\n" +
				"InnoDB (both write each page once), but its interface cannot express\n" +
				"Couchbase's zero-copy compaction (Table 2) — the paper's key contrast\n" +
				"with prior work.\n", nil
		},
	})

	register(Experiment{
		ID:    "abl-op",
		Title: "Ablation: over-provisioning vs GC copyback under DWB-On and SHARE",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb := stats.NewTable("OP", "Mode", "GC events", "Copybacks", "WAF")
			for _, op := range []float64{0.07, 0.15, 0.28} {
				for _, mode := range []innodb.FlushMode{innodb.DWBOn, innodb.Share} {
					blocks := scaled(paperDeviceBlocks, p.Scale)
					if blocks < 64 {
						blocks = 64
					}
					cfg := ssd.DefaultConfig(blocks)
					cfg.FTL.OverProvision = op
					dev, err := ssd.New("dev", cfg)
					if err != nil {
						return "", err
					}
					task := sim.NewSoloTask("setup")
					if err := dev.Age(task, 0.85, 0.3, p.Seed); err != nil {
						return "", err
					}
					fs, err := fsim.Format(task, dev, 256)
					if err != nil {
						return "", err
					}
					logDev, err := newLogDevice(p)
					if err != nil {
						return "", err
					}
					eng, err := innodb.Open(task, fs, logDev, innodb.Config{
						PageSize:  4096,
						PoolBytes: int64(paperBufferMB * 1024 * 1024 * p.Scale),
						FlushMode: mode,
						DWBPages:  32,
						DataBytes: dev.CapacityBytes() * 60 / 100,
						LogPages:  uint32(logDev.Capacity()) / 2,
					})
					if err != nil {
						return "", err
					}
					cfg2 := linkCfg(p)
					cfg2.Nodes = nodesForDevice(dev.CapacityBytes())
					// Sustained churn so GC reaches steady state.
					cfg2.Requests *= 12
					if err := linkbench.Load(task, eng, cfg2); err != nil {
						return "", err
					}
					dev.ResetStats()
					if _, err := linkbench.Run(eng, cfg2); err != nil {
						return "", err
					}
					st := dev.Stats()
					waf := st.WriteAmplification()
					tb.AddRow(fmt.Sprintf("%.0f%%", op*100), mode.String(),
						st.FTL.GCEvents, st.FTL.Copybacks,
						fmt.Sprintf("%.2f", waf))
					r.Metric(fmt.Sprintf("%s_waf_op%.0f", mode.String(), op*100), waf, "x")
					r.Metric(fmt.Sprintf("%s_gc_op%.0f", mode.String(), op*100), float64(st.FTL.GCEvents), "events")
				}
			}
			return tb.String() + "\nSHARE's halved host writes relax GC pressure most when\nover-provisioning is scarce.\n", nil
		},
	})
}

func init() {
	register(Experiment{
		ID: "abl-queue",
		Title: "Ablation: device queue depth (internal parallelism) vs the SHARE advantage " +
			"on LinkBench",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb := stats.NewTable("QueueDepth", "DWB-On (tps)", "SHARE (tps)", "SHARE/DWB")
			for _, depth := range []int{1, 4, 16} {
				var tput [2]float64
				for i, mode := range []innodb.FlushMode{innodb.DWBOn, innodb.Share} {
					blocks := scaled(paperDeviceBlocks, p.Scale)
					if blocks < 64 {
						blocks = 64
					}
					cfg := ssd.DefaultConfig(blocks)
					cfg.QueueDepth = depth
					dev, err := ssd.New("dev", cfg)
					if err != nil {
						return "", err
					}
					task := sim.NewSoloTask("setup")
					if err := dev.Age(task, 0.95, 0.3, p.Seed); err != nil {
						return "", err
					}
					if err := dev.Trim(task, 0, dev.Capacity()); err != nil {
						return "", err
					}
					fs, err := fsim.Format(task, dev, 256)
					if err != nil {
						return "", err
					}
					logDev, err := newLogDevice(p)
					if err != nil {
						return "", err
					}
					eng, err := innodb.Open(task, fs, logDev, innodb.Config{
						PageSize:  4096,
						PoolBytes: int64(paperBufferMB * 1024 * 1024 * p.Scale),
						FlushMode: mode,
						DWBPages:  32,
						DataBytes: dev.CapacityBytes() * 60 / 100,
						LogPages:  uint32(logDev.Capacity()) / 2,
					})
					if err != nil {
						return "", err
					}
					cfg2 := linkCfg(p)
					cfg2.Nodes = nodesForDevice(dev.CapacityBytes())
					if err := linkbench.Load(task, eng, cfg2); err != nil {
						return "", err
					}
					dev.ResetStats()
					res, err := linkbench.Run(eng, cfg2)
					if err != nil {
						return "", err
					}
					tput[i] = res.Throughput
				}
				tb.AddRow(depth, fmtThroughput(tput[0]), fmtThroughput(tput[1]),
					ratio(tput[1], tput[0]))
				r.Metric(fmt.Sprintf("dwb_on_tps_qd%d", depth), tput[0], "tps")
				r.Metric(fmt.Sprintf("share_tps_qd%d", depth), tput[1], "tps")
			}
			return tb.String() + "\nThe OpenSSD prototype is effectively serial (depth 1); modern\ndrives overlap commands, which absorbs part of the doubled write\ntraffic and narrows (but does not erase) the SHARE advantage.\n", nil
		},
	})
}
