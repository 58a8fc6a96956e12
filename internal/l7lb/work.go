package l7lb

import "hermes/internal/kernel"

// Work is one application-layer request: the simulated kernel's request
// descriptor, which LB.Deliver hands to a connection socket by value and the
// worker that pops it serves. It is an alias, not a defined type, so a Work
// sent through NS.DeliverData directly is the same descriptor the socket
// carries.
type Work = kernel.Payload
