package vm

import "sync/atomic"

// Process-wide execution totals, accumulated across every Machine's Run
// calls regardless of whether an obs context is attached. The live
// telemetry registry polls these as gauges, so a long-running daemon
// can report how much guest work it has retired without threading a
// context into every VM.
var (
	totalRuns      atomic.Uint64
	totalInstr     atomic.Uint64
	totalLoads     atomic.Uint64
	totalStores    atomic.Uint64
	totalSyscalls  atomic.Uint64
	totalUnaligned atomic.Uint64
	totalSBBuilt   atomic.Uint64
	totalSBHits    atomic.Uint64
	totalSBLinks   atomic.Uint64
	totalSBInval   atomic.Uint64
)

// TotalStats is a snapshot of process-wide VM activity.
type TotalStats struct {
	Runs      uint64 // completed Run calls
	Icount    uint64 // retired instructions
	Loads     uint64
	Stores    uint64
	Syscalls  uint64
	Unaligned uint64
	// Superblock-cache activity.
	SBBuilt uint64 // superblocks harvested
	SBHits  uint64 // block executions, including trace-link transitions
	SBLinks uint64 // trace links installed
	SBInval uint64 // blocks dropped by stores into text
}

// Totals returns a snapshot of the process-wide execution totals.
func Totals() TotalStats {
	return TotalStats{
		Runs:      totalRuns.Load(),
		Icount:    totalInstr.Load(),
		Loads:     totalLoads.Load(),
		Stores:    totalStores.Load(),
		Syscalls:  totalSyscalls.Load(),
		Unaligned: totalUnaligned.Load(),
		SBBuilt:   totalSBBuilt.Load(),
		SBHits:    totalSBHits.Load(),
		SBLinks:   totalSBLinks.Load(),
		SBInval:   totalSBInval.Load(),
	}
}
