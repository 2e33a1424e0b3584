// Live channel reconfiguration. An adaptive sender does not rebuild
// its eviction sets between messages — it keeps the established
// channel and retunes the cheap knobs: the bit period (pulse rate),
// the FEC strength, and — on switch fabrics — which plane its remote
// probe traffic rides. The arms-race game engine (internal/game)
// drives these between rounds; Transmit reads Cfg at call time, so a
// Reconfigure takes effect on the next transmission without
// disturbing one in flight.
package core

import (
	"fmt"

	"spybox/internal/arch"
)

// Reconfigure swaps the channel's transmission parameters after
// validating them. The new config applies from the next Transmit.
func (c *Channel) Reconfigure(cfg CovertConfig) error {
	if cfg.BitPeriod <= 0 {
		return fmt.Errorf("core: Reconfigure: BitPeriod must be positive, got %d", cfg.BitPeriod)
	}
	if cfg.GuardFrac < 0 || cfg.GuardFrac >= 0.5 {
		return fmt.Errorf("core: Reconfigure: GuardFrac must be in [0, 0.5), got %g", cfg.GuardFrac)
	}
	c.Cfg = cfg
	return nil
}

// Plane returns the switch plane the spy's remote probe traffic rides
// (route overrides included), or -1 on point-to-point boxes.
func (c *Channel) Plane() int {
	return c.Spy.m.Topology().PlaneFor(c.Spy.Proc.Device(), c.Spy.Target)
}

// SetPlane re-pins the spy↔target pair's route onto the given switch
// plane (plane hopping: the attacker's countermove when a plane is
// being throttled or watched). Negative restores the default route.
// Errors on point-to-point boxes, where there is no plane to hop.
func (c *Channel) SetPlane(plane int) error {
	return c.Spy.m.Topology().PinPlane(c.Spy.Proc.Device(), c.Spy.Target, plane)
}

// BitPeriods returns the rate ladder an adaptive sender modulates
// over: the default period, one faster step, and two slower ones.
// Slower steps trade bandwidth for cleaner epochs (more probes per
// bit); the faster step is the attacker pressing its luck when the
// channel is clean.
func BitPeriods() [4]arch.Cycles {
	d := DefaultCovertConfig().BitPeriod
	return [4]arch.Cycles{d * 3 / 4, d, d * 3 / 2, d * 9 / 4}
}
