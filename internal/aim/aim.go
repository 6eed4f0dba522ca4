// Package aim reproduces the role of the AIM Suite III multi-user benchmark
// in the paper's Figure 5: a tunable mix of simulated jobs (CPU, disk and
// memory bound) run by N concurrent users against the simulated kernel,
// reporting system throughput in jobs per minute.
//
// AIM III itself is proprietary (the paper cites the 1986 user's guide);
// what Figure 5 needs from it is only (a) a workload whose throughput is
// resource-limited, so that adding users beyond the saturation point
// degrades throughput, and (b) three mixes weighting disk and memory
// differently. The synthetic jobs below provide exactly that against the
// simulated CPU (virtual clock), disk and VM system.
package aim

import (
	"fmt"
	"math/rand"
	"time"

	"hipec/internal/core"
	"hipec/internal/simtime"
	"hipec/internal/vm"
)

// Mix is a weighted job profile, the analogue of an AIM workload file.
type Mix struct {
	Name string
	// CPUPerJob is pure computation per job.
	CPUPerJob time.Duration
	// DiskOpsPerJob is the number of raw disk transfers per job.
	DiskOpsPerJob int
	// MemTouchesPerJob is the number of page references per job, spread
	// over the user's footprint.
	MemTouchesPerJob int
	// FootprintPages is each user's resident working set.
	FootprintPages int64
	// WriteFrac is the fraction of memory touches that dirty pages.
	WriteFrac float64
	// ThinkTime is the pause between a user's jobs. It is what makes the
	// throughput curve rise with user count before the CPU saturates
	// (the classic interactive closed-system shape of Figure 5).
	ThinkTime time.Duration
}

// StandardMix balances CPU, disk and memory (the "standard workload").
func StandardMix() Mix {
	return Mix{
		Name:             "standard",
		CPUPerJob:        12 * time.Millisecond,
		DiskOpsPerJob:    3,
		MemTouchesPerJob: 160,
		FootprintPages:   900,
		WriteFrac:        0.3,
		ThinkTime:        170 * time.Millisecond,
	}
}

// DiskMix emphasizes disk usage (the second workload).
func DiskMix() Mix {
	return Mix{
		Name:             "disk",
		CPUPerJob:        4 * time.Millisecond,
		DiskOpsPerJob:    10,
		MemTouchesPerJob: 60,
		FootprintPages:   500,
		WriteFrac:        0.3,
		ThinkTime:        400 * time.Millisecond,
	}
}

// MemoryMix emphasizes memory usage (the third workload).
func MemoryMix() Mix {
	return Mix{
		Name:             "memory",
		CPUPerJob:        4 * time.Millisecond,
		DiskOpsPerJob:    1,
		MemTouchesPerJob: 500,
		FootprintPages:   1700,
		WriteFrac:        0.4,
		ThinkTime:        100 * time.Millisecond,
	}
}

// Mixes returns the three workload mixes of Figure 5.
func Mixes() []Mix { return []Mix{StandardMix(), DiskMix(), MemoryMix()} }

// Result is one throughput measurement.
type Result struct {
	Mix        string
	Users      int
	Jobs       int
	Elapsed    time.Duration
	Throughput float64 // jobs per virtual minute
	Faults     int64
}

// Run simulates users concurrent users each completing jobsPerUser jobs of
// the mix on kernel k. It models the classic interactive closed system on
// one CPU (the paper disabled the second CPU): each user thinks for
// Mix.ThinkTime, then queues a job; jobs execute serially on the simulated
// CPU. Throughput therefore rises with user count until the CPU saturates
// (5-6 users in Figure 5) and then degrades as memory contention inflates
// job service times. k must be a simulated kernel: the mix charges CPU and
// disk time, which only the sim models.
func Run(k *core.Kernel, mix Mix, users, jobsPerUser int) (Result, error) {
	if users <= 0 || jobsPerUser <= 0 {
		return Result{}, fmt.Errorf("aim: users=%d jobs=%d", users, jobsPerUser)
	}
	type user struct {
		sp      *vm.AddressSpace
		e       *vm.MapEntry
		rng     *rand.Rand
		jobs    int
		readyAt simtime.Time
		diskA   int64
	}
	us := make([]*user, users)
	for i := range us {
		sp := k.NewSpace()
		e, err := sp.Allocate(mix.FootprintPages * int64(k.VM.PageSize()))
		if err != nil {
			return Result{}, err
		}
		us[i] = &user{
			sp:    sp,
			e:     e,
			rng:   rand.New(rand.NewSource(int64(i + 1))),
			diskA: int64(i) * 1 << 20,
			// Stagger initial think completions deterministically.
			readyAt: k.Clock.Now().Add(mix.ThinkTime * time.Duration(i+1) / time.Duration(users)),
		}
	}
	start := k.Clock.Now()
	f0 := k.VM.Stats().Faults
	remaining := users * jobsPerUser
	for remaining > 0 {
		// Next ready user (earliest readyAt; index breaks ties).
		var u *user
		for _, cand := range us {
			if cand.jobs >= jobsPerUser {
				continue
			}
			if u == nil || cand.readyAt < u.readyAt {
				u = cand
			}
		}
		if u.readyAt > k.Clock.Now() {
			k.Clock.RunUntil(u.readyAt) // CPU idle until a user finishes thinking
		}
		if err := runJob(k, mix, u.sp, u.e, u.rng, &u.diskA); err != nil {
			return Result{}, err
		}
		u.jobs++
		remaining--
		u.readyAt = k.Clock.Now().Add(mix.ThinkTime)
	}
	elapsed := time.Duration(k.Clock.Now().Sub(start))
	totalJobs := users * jobsPerUser
	return Result{
		Mix:        mix.Name,
		Users:      users,
		Jobs:       totalJobs,
		Elapsed:    elapsed,
		Throughput: float64(totalJobs) / elapsed.Minutes(),
		Faults:     k.VM.Stats().Faults - f0,
	}, nil
}

func runJob(k *core.Kernel, mix Mix, sp *vm.AddressSpace, e *vm.MapEntry, rng *rand.Rand, diskA *int64) error {
	// CPU phase.
	k.Clock.Sleep(mix.CPUPerJob)
	// Disk phase: raw transfers bypassing the page cache.
	for i := 0; i < mix.DiskOpsPerJob; i++ {
		*diskA++
		k.VM.Disk.Read(*diskA+rng.Int63n(4096), k.VM.PageSize())
	}
	// Memory phase: touches over the footprint; under memory pressure
	// these fault and contend with every other user via the pageout
	// daemon's shared pool.
	ps := int64(k.VM.PageSize())
	for i := 0; i < mix.MemTouchesPerJob; i++ {
		page := rng.Int63n(mix.FootprintPages)
		addr := e.Start + page*ps
		var err error
		if rng.Float64() < mix.WriteFrac {
			_, err = sp.Write(addr)
		} else {
			_, err = sp.Touch(addr)
		}
		if err != nil {
			return fmt.Errorf("aim job memory touch: %w", err)
		}
	}
	return nil
}

// Sweep runs the mix at each user count on freshly built kernels and
// returns one Result per count. build must return a new kernel each call.
func Sweep(build func() *core.Kernel, mix Mix, userCounts []int, jobsPerUser int) ([]Result, error) {
	out := make([]Result, 0, len(userCounts))
	for _, n := range userCounts {
		r, err := Run(build(), mix, n, jobsPerUser)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
