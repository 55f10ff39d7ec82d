package admit

import "strings"

// Class is a serving tier. Every request carries one; the wait queue orders
// by it and the report layer (internal/load) aggregates by it. Classes are a
// small fixed ladder — a serving tier is a contract, not an open namespace —
// ranked from most to least latency-sensitive. Lower values admit first.
type Class int

const (
	// ClassGold is interactive traffic with the tightest deadlines.
	ClassGold Class = iota
	// ClassSilver is latency-sensitive but tolerant traffic.
	ClassSilver
	// ClassBronze is the default tier for untagged traffic.
	ClassBronze
	// ClassBatch is throughput-oriented traffic that yields to everything.
	ClassBatch

	// NumClasses bounds the class ladder; per-class counter arrays index by
	// Class and are sized by it.
	NumClasses
)

var classNames = [NumClasses]string{"gold", "silver", "bronze", "batch"}

func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "bronze"
	}
	return classNames[c]
}

// ClassByName resolves a class name, ignoring case and surrounding space.
func ClassByName(s string) (Class, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	for c, name := range classNames {
		if s == name {
			return Class(c), true
		}
	}
	return ClassBronze, false
}

// ParseClass maps a class header value to its tier. Unknown spellings and
// the empty string land in ClassBronze, so that untagged traffic neither
// jumps the queue nor starves: misconfigured clients get the default tier,
// never an error and never a priority boost.
func ParseClass(s string) Class {
	c, _ := ClassByName(s)
	return c
}
