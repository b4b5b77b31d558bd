// Package errs holds the sentinel errors shared across the Albatross
// packages and re-exported by the public facade. Internal constructors wrap
// these with %w so callers can classify failures with errors.Is without
// string-matching, and so the facade's documented error contract
// (ErrBadConfig, ErrPodExhausted, ...) holds no matter which internal layer
// detected the problem.
package errs

import "errors"

var (
	// BadConfig reports an invalid configuration value passed to a
	// constructor. No constructor panics on bad input; it returns an error
	// wrapping this sentinel.
	BadConfig = errors.New("invalid configuration")

	// Exhausted reports that a resource pool (cores, VFs, reorder queues,
	// NAT bindings, ...) cannot satisfy an allocation.
	Exhausted = errors.New("resources exhausted")

	// BadState reports an operation that is not legal in the component's
	// current lifecycle state (e.g. restarting a pod that never crashed).
	BadState = errors.New("invalid state for operation")
)
