//go:build !go1.23

package sim

var _ = spybox_requires_go1_23 // the event engine runs workers with iter.Pull (Go 1.23+)
