package hipec_test

import (
	"errors"
	"testing"

	"hipec"
	"hipec/internal/kevent"
)

// TestTypedActivationError checks that the public API surfaces activation
// failures as typed *hipec.Error values carrying the ErrPolicyFault sentinel.
func TestTypedActivationError(t *testing.T) {
	k := hipec.New(hipec.Config{Frames: 64, HiPECDisabled: true})
	sp := k.NewSpace()
	_, _, err := k.Allocate(sp, 16*4096, hipec.WithPolicy(hipec.PolicyFIFO(8)))
	if err == nil {
		t.Fatal("Allocate with a policy succeeded on a HiPEC-disabled kernel")
	}
	var he *hipec.Error
	if !errors.As(err, &he) {
		t.Fatalf("err = %v (%T), want *hipec.Error", err, err)
	}
	if !errors.Is(err, hipec.ErrPolicyFault) {
		t.Fatalf("err = %v, want to wrap ErrPolicyFault", err)
	}
}

// substrates are the worlds the disk fault plane must reach: on the sim it
// acts at the modeled disk, on the realtime substrate at the store.
var substrates = []hipec.SubstrateKind{hipec.SubstrateSim, hipec.SubstrateReal}

// TestDiskFaultDegradesToRevocation pins the acceptance criterion: a hard
// disk failure on a HiPEC-managed region exhausts the region's retry budget,
// surfaces as ErrDiskIO, and leaves the container cleanly revoked rather
// than wedged — on both substrates.
func TestDiskFaultDegradesToRevocation(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.String(), func(t *testing.T) {
			k := hipec.New(hipec.Config{
				Frames:    64,
				Faults:    hipec.FaultConfig{Seed: 42, Disk: hipec.FaultRule{FailRate: 1}},
				Substrate: hipec.SubstrateConfig{Kind: sub},
			})
			sp := k.NewSpace()
			obj := k.VM.NewObject(16*4096, false)
			if err := k.VM.Populate(obj, nil); err != nil { // contents live on disk, so page-ins hit the device
				t.Fatal(err)
			}
			e, c, err := k.Map(sp, obj, 0, 16*4096,
				hipec.WithPolicy(hipec.PolicyFIFO(8)), hipec.WithRetryBudget(2))
			if err != nil {
				t.Fatal(err)
			}
			_, err = sp.Touch(e.Start)
			if !errors.Is(err, hipec.ErrDiskIO) {
				t.Fatalf("touch error = %v, want ErrDiskIO", err)
			}
			if c.State() != hipec.StateRevoked {
				t.Fatalf("container state = %v after exhausted recovery, want revoked", c.State())
			}
			if c.Allocated() != 0 {
				t.Fatalf("revoked container still holds %d frames", c.Allocated())
			}
		})
	}
}

// TestTransientDiskFaultRetries checks the other half of the ladder: when
// failures are intermittent, the bounded retry path absorbs them and the
// workload never sees an error — on both substrates.
func TestTransientDiskFaultRetries(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.String(), func(t *testing.T) {
			k := hipec.New(hipec.Config{
				Frames:    64,
				Faults:    hipec.FaultConfig{Seed: 1, Disk: hipec.FaultRule{FailEvery: 2}},
				Substrate: hipec.SubstrateConfig{Kind: sub},
			})
			sp := k.NewSpace()
			obj := k.VM.NewObject(16*4096, false)
			if err := k.VM.Populate(obj, nil); err != nil {
				t.Fatal(err)
			}
			e, err := sp.Map(obj, 0, 16*4096)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 16; i++ {
				if _, err := sp.Touch(e.Start + i*4096); err != nil {
					t.Fatalf("page %d: %v (retries should absorb every-2nd failures)", i, err)
				}
			}
			if got := k.Registry().Count(kevent.EvFaultRetry); got == 0 {
				t.Fatal("no fault.retry events recorded despite injected failures")
			}
			// Only the modeled disk records injected errors on the spine;
			// the realtime store wrapper has none.
			if sub == hipec.SubstrateSim && k.Registry().Count(kevent.EvInjectDiskError) == 0 {
				t.Fatal("no disk errors injected")
			}
		})
	}
}
