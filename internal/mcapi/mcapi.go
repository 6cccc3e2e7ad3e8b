// Package mcapi implements the Multicore Association Communication API
// (MCAPI) semantics in pure Go: port-addressed endpoints on nodes,
// connectionless prioritized messages, connected packet channels and
// connected scalar channels, with blocking and non-blocking variants.
//
// The paper limits itself to MRAPI and names MCAPI as the vehicle for its
// future heterogeneous work (§7, and §4A's plan to drive the hypervisor
// with it); this package completes that surface so the task fabric and
// the offload example can communicate between nodes on the modeled
// platform.
package mcapi

import (
	"time"
)

// Status mirrors mcapi_status_t; failing calls return a Status as their
// error. Success is never returned as an error.
type Status uint32

// Status codes, following MCAPI 2.0 naming.
const (
	Success             Status = iota
	ErrNodeInitFailed          // node already initialized in its domain
	ErrNodeNotInit             // node not initialized / finalized
	ErrEndpExists              // port already has an endpoint
	ErrEndpInvalid             // no such endpoint or endpoint deleted
	ErrEndpLimit               // too many endpoints on the node
	ErrPortInvalid             // port number out of range
	ErrPriority                // priority out of range
	ErrTruncated               // receive buffer smaller than the message
	ErrMemLimit                // queue full (non-blocking) or message too large
	ErrChanOpen                // operation illegal while the channel is open
	ErrChanNotOpen             // channel handle not open
	ErrChanConnected           // endpoint already connected
	ErrChanNotConnect          // endpoints not connected
	ErrChanDirection           // wrong-direction handle for the operation
	ErrChanTypeMatch           // scalar size mismatch or packet/scalar confusion
	ErrTimeout                 // blocking call timed out
	ErrRequestInvalid          // unknown request
	ErrRequestCanceled         // request canceled
	ErrClosed                  // endpoint or channel torn down under a waiter
	ErrParameterInvalid        // bad argument (unknown attribute, ...)
)

var statusNames = map[Status]string{
	Success:             "MCAPI_SUCCESS",
	ErrNodeInitFailed:   "MCAPI_ERR_NODE_INITFAILED",
	ErrNodeNotInit:      "MCAPI_ERR_NODE_NOTINIT",
	ErrEndpExists:       "MCAPI_ERR_ENDP_EXISTS",
	ErrEndpInvalid:      "MCAPI_ERR_ENDP_INVALID",
	ErrEndpLimit:        "MCAPI_ERR_ENDP_LIMIT",
	ErrPortInvalid:      "MCAPI_ERR_PORT_INVALID",
	ErrPriority:         "MCAPI_ERR_PRIORITY",
	ErrTruncated:        "MCAPI_ERR_MSG_TRUNCATED",
	ErrMemLimit:         "MCAPI_ERR_MEM_LIMIT",
	ErrChanOpen:         "MCAPI_ERR_CHAN_OPEN",
	ErrChanNotOpen:      "MCAPI_ERR_CHAN_NOTOPEN",
	ErrChanConnected:    "MCAPI_ERR_CHAN_CONNECTED",
	ErrChanNotConnect:   "MCAPI_ERR_CHAN_NOTCONNECTED",
	ErrChanDirection:    "MCAPI_ERR_CHAN_DIRECTION",
	ErrChanTypeMatch:    "MCAPI_ERR_CHAN_TYPE",
	ErrTimeout:          "MCAPI_TIMEOUT",
	ErrRequestInvalid:   "MCAPI_ERR_REQUEST_INVALID",
	ErrRequestCanceled:  "MCAPI_ERR_REQUEST_CANCELED",
	ErrClosed:           "MCAPI_ERR_CLOSED",
	ErrParameterInvalid: "MCAPI_ERR_PARAMETER",
}

// Error implements the error interface.
func (s Status) Error() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return "MCAPI_STATUS_UNKNOWN"
}

// String returns the spec-style name.
func (s Status) String() string { return s.Error() }

// Timeout expresses how long a blocking MCAPI call may wait.
type Timeout time.Duration

const (
	// TimeoutInfinite blocks indefinitely (MCA_INFINITE).
	TimeoutInfinite Timeout = -1
	// TimeoutImmediate makes the call non-blocking.
	TimeoutImmediate Timeout = 0
)

// Priorities run 0 (highest) through MaxPriority.
const MaxPriority = 3

// MaxMsgSize bounds one connectionless message, mirroring
// MCAPI_MAX_MSG_SIZE.
const MaxMsgSize = 1 << 20

// DefaultQueueDepth is an endpoint's receive-queue capacity (messages or
// packets) unless overridden by EndpointAttributes.
const DefaultQueueDepth = 64
