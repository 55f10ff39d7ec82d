package server

// Every request carries a tenant identity (for per-tenant rate limiting and
// reporting) on X-Tenant and an SLO class (admit.Class; admission orders the
// wait queue by it) on X-SLO-Class. Unknown or absent class headers fall into
// the default tier, admit.ClassBronze.

// Header names the query endpoint reads and the load generator sets.
const (
	// TenantHeader identifies the calling tenant; empty means DefaultTenant.
	TenantHeader = "X-Tenant"
	// ClassHeader names the request's SLO class; empty or unknown means
	// ClassBronze.
	ClassHeader = "X-SLO-Class"
	// RejectReasonHeader is set on every 429/503 rejection so callers (and
	// the load generator's report) can distinguish rejection causes without
	// parsing error bodies: "queue-full", "queue-timeout", "deadline-shed",
	// or "rate-limit".
	RejectReasonHeader = "X-Reject-Reason"
)

// DefaultTenant is the tenant identity of requests without a tenant header.
const DefaultTenant = "anon"
