package eval

import (
	"math"

	"github.com/gables-model/gables/internal/jsonenc"
)

// AppendJSON appends o's JSON encoding to dst without reflection. The
// bytes equal json.Marshal(o) — field order, omitempty and the float and
// string rules come from the struct tags and encoding/json — for every
// outcome Marshal accepts, which is every Finite one; a nil o encodes as
// null.
func (o *Outcome) AppendJSON(dst []byte) []byte {
	if o == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"backend":`...)
	dst = jsonenc.AppendString(dst, o.Backend)
	dst = append(dst, `,"fidelity":`...)
	dst = jsonenc.AppendString(dst, string(o.Fidelity))
	dst = append(dst, `,"attainable":`...)
	dst = jsonenc.AppendFloat(dst, o.Attainable)
	dst = append(dst, `,"makespan":`...)
	dst = jsonenc.AppendFloat(dst, o.Makespan)
	dst = append(dst, `,"total_flops":`...)
	dst = jsonenc.AppendFloat(dst, o.TotalFlops)
	dst = append(dst, `,"bottleneck":{"kind":`...)
	dst = jsonenc.AppendString(dst, o.Bottleneck.Kind)
	dst = append(dst, `,"name":`...)
	dst = jsonenc.AppendString(dst, o.Bottleneck.Name)
	dst = append(dst, '}')
	if o.TieRatio != 0 {
		dst = append(dst, `,"tie_ratio":`...)
		dst = jsonenc.AppendFloat(dst, o.TieRatio)
	}
	if o.DRAMUtilization != 0 {
		dst = append(dst, `,"dram_utilization":`...)
		dst = jsonenc.AppendFloat(dst, o.DRAMUtilization)
	}
	if c := o.Confidence; c != nil {
		dst = append(dst, `,"confidence":{"rel_err_bound":`...)
		dst = jsonenc.AppendFloat(dst, c.RelErrBound)
		dst = append(dst, `,"lo":`...)
		dst = jsonenc.AppendFloat(dst, c.Lo)
		dst = append(dst, `,"hi":`...)
		dst = jsonenc.AppendFloat(dst, c.Hi)
		dst = append(dst, `,"bucket":`...)
		dst = jsonenc.AppendString(dst, c.Bucket)
		dst = append(dst, `,"efficiency":`...)
		dst = jsonenc.AppendFloat(dst, c.Efficiency)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"ips":`...)
	if o.IPs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range o.IPs {
			ip := &o.IPs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"ip":`...)
			dst = jsonenc.AppendString(dst, ip.IP)
			dst = append(dst, `,"flops":`...)
			dst = jsonenc.AppendFloat(dst, ip.Flops)
			dst = append(dst, `,"bytes":`...)
			dst = jsonenc.AppendFloat(dst, ip.Bytes)
			dst = append(dst, `,"time":`...)
			dst = jsonenc.AppendFloat(dst, ip.Time)
			dst = append(dst, `,"rate":`...)
			dst = jsonenc.AppendFloat(dst, ip.Rate)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// Finite reports whether every number in o is finite. json.Marshal
// rejects the others, so an outcome that is not Finite has no JSON
// encoding; a nil o is Finite.
func (o *Outcome) Finite() bool {
	if o == nil {
		return true
	}
	// x-x is 0 for a finite x and NaN otherwise, so nan stays 0 exactly
	// when every number is finite (a plain sum could overflow).
	nan := 0.0
	for _, x := range [...]float64{o.Attainable, o.Makespan, o.TotalFlops, o.TieRatio, o.DRAMUtilization} {
		nan += x - x
	}
	if c := o.Confidence; c != nil {
		for _, x := range [...]float64{c.RelErrBound, c.Lo, c.Hi, c.Efficiency} {
			nan += x - x
		}
	}
	for i := range o.IPs {
		ip := &o.IPs[i]
		for _, x := range [...]float64{ip.Flops, ip.Bytes, ip.Time, ip.Rate} {
			nan += x - x
		}
	}
	return !math.IsNaN(nan)
}
