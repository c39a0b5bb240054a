package plan

import (
	"fmt"
	"math"
	"strconv"
)

// MaxPointJSON bounds the length of AppendJSON's output: every field
// present, five 20-byte ints and twelve 25-byte floats. A buffer presized
// with it per point never grows.
const MaxPointJSON = 688

// AppendJSON appends pt's JSON object to b: byte for byte what
// encoding/json writes for a Point, omitempty fields and float format
// included, without reflection. Like encoding/json it fails on a NaN or
// infinite field.
func (pt Point) AppendJSON(b []byte) ([]byte, error) {
	for _, f := range [...]float64{pt.TightConstant, pt.Bound, pt.LeadingTerm, pt.MemBound, pt.Binding,
		pt.CommCost, pt.MemoryCost, pt.Time, pt.Words, pt.Speedup, pt.Efficiency, pt.Slowdown} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return b, fmt.Errorf("plan: JSON cannot encode %v in the P=%d point", f, pt.P)
		}
	}
	b = append(b, `{"p":`...)
	b = strconv.AppendInt(b, int64(pt.P), 10)
	b = append(b, `,"case":`...)
	b = strconv.AppendInt(b, int64(pt.Case), 10)
	b = appendFloat(b, `,"tight_constant":`, pt.TightConstant)
	b = appendFloat(b, `,"bound":`, pt.Bound)
	b = appendFloat(b, `,"leading_term":`, pt.LeadingTerm)
	b = appendFloat(b, `,"memory_dependent_bound":`, pt.MemBound)
	b = appendFloat(b, `,"binding_bound":`, pt.Binding)
	b = strconv.AppendBool(append(b, `,"memory_dependent":`...), pt.MemoryDependent)
	if pt.Crossover {
		b = append(b, `,"crossover":true`...)
	}
	b = strconv.AppendBool(append(b, `,"fits":`...), pt.Fits)
	b = strconv.AppendBool(append(b, `,"perfect_scaling":`...), pt.PerfectScaling)
	if g := pt.Grid; g != nil {
		b = strconv.AppendInt(append(b, `,"grid":{"p1":`...), int64(g.P1), 10)
		b = strconv.AppendInt(append(b, `,"p2":`...), int64(g.P2), 10)
		b = strconv.AppendInt(append(b, `,"p3":`...), int64(g.P3), 10)
		b = append(b, '}')
	}
	b = appendNonZero(b, `,"comm_cost":`, pt.CommCost)
	b = appendNonZero(b, `,"memory_cost":`, pt.MemoryCost)
	b = appendNonZero(b, `,"time":`, pt.Time)
	b = appendNonZero(b, `,"words":`, pt.Words)
	b = appendNonZero(b, `,"speedup":`, pt.Speedup)
	b = appendNonZero(b, `,"efficiency":`, pt.Efficiency)
	b = appendNonZero(b, `,"slowdown":`, pt.Slowdown)
	return append(b, '}'), nil
}

// appendFloat appends key and finite f the way encoding/json formats a
// float64: like ES6, 'e' notation only for |f| < 1e-6 or |f| ≥ 1e21, with a
// negative exponent's leading zero dropped ("e-07" → "e-7").
func appendFloat(b []byte, key string, f float64) []byte {
	b = append(b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendNonZero is appendFloat for an omitempty field, which encoding/json
// leaves out when it is zero of either sign.
func appendNonZero(b []byte, key string, f float64) []byte {
	if f == 0 {
		return b
	}
	return appendFloat(b, key, f)
}
