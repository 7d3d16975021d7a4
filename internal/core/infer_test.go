package core

import (
	"testing"

	"arest/internal/mpls"
)

func labelSet(labels ...uint32) map[uint32]bool {
	out := map[uint32]bool{}
	for _, l := range labels {
		out[l] = true
	}
	return out
}

func TestInferSRGBVendorDefault(t *testing.T) {
	est, ok := InferSRGB(labelSet(16004, 16010, 16019, 16040))
	if !ok {
		t.Fatal("no estimate")
	}
	if est.Block != mpls.CiscoSRGB {
		t.Errorf("block = %v, want Cisco default", est.Block)
	}
	if est.Vendor != mpls.VendorCisco {
		t.Errorf("vendor = %v", est.Vendor)
	}
	if est.Samples != 4 {
		t.Errorf("samples = %d", est.Samples)
	}
	if est.Observed.Lo != 16004 || est.Observed.Hi != 16040 {
		t.Errorf("observed = %v", est.Observed)
	}
}

func TestInferSRGBCustomBlock(t *testing.T) {
	est, ok := InferSRGB(labelSet(400003, 400190, 401777))
	if !ok {
		t.Fatal("no estimate")
	}
	if est.Vendor != mpls.VendorUnknown {
		t.Errorf("custom block matched vendor %v", est.Vendor)
	}
	if est.Block.Lo != 400000 || est.Block.Hi != 401999 {
		t.Errorf("block = %v, want [400000,401999]", est.Block)
	}
	if !est.Block.Contains(est.Observed.Lo) || !est.Block.Contains(est.Observed.Hi) {
		t.Error("block does not cover observations")
	}
}

func TestInferSRGBHuaweiRegion(t *testing.T) {
	// Labels beyond 24,000 cannot be Cisco's default: Huawei's block wins.
	est, ok := InferSRGB(labelSet(30001, 31005, 40000))
	if !ok || est.Vendor != mpls.VendorHuawei {
		t.Errorf("est = %+v ok=%v, want Huawei", est, ok)
	}
}

// TestInferSRGBNeedsEvidence covers the sample floor. That LSO and
// unflagged labels never reach the label set is the Detect fold's job
// (exp.TestAggFixtureHeadlineTallies).
func TestInferSRGBNeedsEvidence(t *testing.T) {
	if _, ok := InferSRGB(labelSet(16004, 16005)); ok {
		t.Error("estimate from too few samples")
	}
	if _, ok := InferSRGB(nil); ok {
		t.Error("estimate from nothing")
	}
}

func TestInferSRGBTopOfLabelSpace(t *testing.T) {
	est, ok := InferSRGB(labelSet(1048000, 1048100, 1048570))
	if !ok {
		t.Fatal("no estimate")
	}
	if est.Block.Hi > mpls.MaxLabel {
		t.Errorf("block %v exceeds the 20-bit label space", est.Block)
	}
}
