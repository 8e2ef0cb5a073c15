package species

// StandardMechanism builds the 35-species condensed photochemical
// mechanism used by the Airshed reproduction. It is a carbon-bond style
// mechanism (in the family of CB4, which the CIT model's chemistry is
// closely related to): an inorganic NOx/O3/radical core plus lumped
// organic chemistry (PAR/OLE/ETH/TOL/XYL/ISOP) with operator species (XO2,
// XO2N) and reservoirs (PAN, HNO3, NTR), extended with SO2 -> sulfate
// chemistry feeding the aerosol module (SULF gas, ASO4 aerosol sulfate).
//
// Rate constants are in mixing-ratio kinetics: 1/min for unimolecular
// reactions and 1/(ppm min) for bimolecular reactions, at the magnitudes
// of the published CB4 values; photolysis rates are the clear-sky noon
// maxima scaled by the actinic flux. Third-body and water reactions are
// folded into pseudo-first- or second-order forms at surface conditions.
// The point of the mechanism in this repository is to reproduce the
// stiffness profile (rate constants spanning ~10 orders of magnitude) that
// makes the chemistry phase of Airshed expensive and highly parallel, not
// to be a reference photochemistry.
//
// The returned mechanism carries standardKernel, the reaction table below
// compiled to straight-line code (standard_kernel.go). After editing the
// table, regenerate it:
//
//	go test ./internal/species -run TestStandardKernelUpToDate -update
func StandardMechanism() *Mechanism {
	specs := []Spec{
		{Name: "NO", MW: 30, Dep: DepSlow, Background: 1e-4},
		{Name: "NO2", MW: 46, Dep: DepModerate, Background: 1e-3},
		{Name: "O3", MW: 48, Dep: DepModerate, Background: 0.04},
		{Name: "O", MW: 16, Dep: DepNone, Background: 0},
		{Name: "O1D", MW: 16, Dep: DepNone, Background: 0},
		{Name: "OH", MW: 17, Dep: DepNone, Background: 1e-7},
		{Name: "HO2", MW: 33, Dep: DepNone, Background: 1e-6},
		{Name: "H2O2", MW: 34, Dep: DepFast, Background: 1e-3},
		{Name: "NO3", MW: 62, Dep: DepNone, Background: 0},
		{Name: "N2O5", MW: 108, Dep: DepFast, Background: 0},
		{Name: "HONO", MW: 47, Dep: DepModerate, Background: 1e-5},
		{Name: "HNO3", MW: 63, Dep: DepFast, Background: 1e-4},
		{Name: "PNA", MW: 79, Dep: DepModerate, Background: 0},
		{Name: "CO", MW: 28, Dep: DepNone, Background: 0.2},
		{Name: "FORM", MW: 30, Dep: DepModerate, Background: 2e-3},
		{Name: "ALD2", MW: 44, Dep: DepSlow, Background: 1e-3},
		{Name: "C2O3", MW: 75, Dep: DepNone, Background: 0},
		{Name: "PAN", MW: 121, Dep: DepSlow, Background: 1e-4},
		{Name: "PAR", MW: 14, Dep: DepNone, Background: 0.02},
		{Name: "ROR", MW: 31, Dep: DepNone, Background: 0},
		{Name: "OLE", MW: 27, Dep: DepNone, Background: 1e-3},
		{Name: "ETH", MW: 28, Dep: DepNone, Background: 2e-3},
		{Name: "TOL", MW: 92, Dep: DepNone, Background: 1e-3},
		{Name: "CRES", MW: 108, Dep: DepModerate, Background: 0},
		{Name: "TO2", MW: 109, Dep: DepNone, Background: 0},
		{Name: "OPEN", MW: 84, Dep: DepNone, Background: 0},
		{Name: "XYL", MW: 106, Dep: DepNone, Background: 5e-4},
		{Name: "MGLY", MW: 72, Dep: DepModerate, Background: 0},
		{Name: "ISOP", MW: 68, Dep: DepNone, Background: 2e-4},
		{Name: "XO2", MW: 47, Dep: DepNone, Background: 0},
		{Name: "XO2N", MW: 47, Dep: DepNone, Background: 0},
		{Name: "NTR", MW: 130, Dep: DepFast, Background: 0},
		{Name: "SO2", MW: 64, Dep: DepModerate, Background: 2e-3},
		{Name: "SULF", MW: 98, Dep: DepFast, Background: 0},
		{Name: "ASO4", MW: 96, Dep: DepFast, Background: 1e-3},
	}
	// Index shorthands for readability of the reaction table.
	ix := make(map[string]int, len(specs))
	for i, s := range specs {
		ix[s.Name] = i
	}
	s := func(name string) int { return ix[name] }
	t := func(name string, y float64) Term { return Term{Species: s(name), Yield: y} }

	reactions := []Reaction{
		// --- Inorganic core ---
		{Label: "NO2+hv->NO+O", Reactants: []int{s("NO2")}, Rate: Photolysis{0.53},
			Products: []Term{t("NO", 1), t("O", 1)}},
		{Label: "O->O3", Reactants: []int{s("O")}, Rate: Arrhenius{A: 4.323e6},
			Products: []Term{t("O3", 1)}},
		{Label: "O3+NO->NO2", Reactants: []int{s("O3"), s("NO")}, Rate: Arrhenius{A: 2.64e3, ER: 1370},
			Products: []Term{t("NO2", 1)}},
		{Label: "O+NO2->NO", Reactants: []int{s("O"), s("NO2")}, Rate: Arrhenius{A: 1.37e4},
			Products: []Term{t("NO", 1)}},
		{Label: "O3+hv->O", Reactants: []int{s("O3")}, Rate: Photolysis{0.038},
			Products: []Term{t("O", 1)}},
		{Label: "O3+hv->O1D", Reactants: []int{s("O3")}, Rate: Photolysis{3.7e-3},
			Products: []Term{t("O1D", 1)}},
		{Label: "O1D->O", Reactants: []int{s("O1D")}, Rate: Arrhenius{A: 4.1e6},
			Products: []Term{t("O", 1)}},
		{Label: "O1D+H2O->2OH", Reactants: []int{s("O1D")}, Rate: Arrhenius{A: 6.4e5},
			Products: []Term{t("OH", 2)}},
		{Label: "O3+OH->HO2", Reactants: []int{s("O3"), s("OH")}, Rate: Arrhenius{A: 2.34e3, ER: 940},
			Products: []Term{t("HO2", 1)}},
		{Label: "O3+HO2->OH", Reactants: []int{s("O3"), s("HO2")}, Rate: Arrhenius{A: 21.0, ER: 580},
			Products: []Term{t("OH", 1)}},
		// --- NO3 / N2O5 night chemistry ---
		{Label: "NO2+O3->NO3", Reactants: []int{s("NO2"), s("O3")}, Rate: Arrhenius{A: 175, ER: 2450},
			Products: []Term{t("NO3", 1)}},
		{Label: "NO3+hv->NO2+O", Reactants: []int{s("NO3")}, Rate: Photolysis{33.9},
			Products: []Term{t("NO2", 0.89), t("O", 0.89), t("NO", 0.11)}},
		{Label: "NO3+NO->2NO2", Reactants: []int{s("NO3"), s("NO")}, Rate: Arrhenius{A: 4.42e4},
			Products: []Term{t("NO2", 2)}},
		{Label: "NO3+NO2->N2O5", Reactants: []int{s("NO3"), s("NO2")}, Rate: Arrhenius{A: 1.78e3},
			Products: []Term{t("N2O5", 1)}},
		{Label: "N2O5->NO3+NO2", Reactants: []int{s("N2O5")}, Rate: Arrhenius{A: 2.8e16, ER: 10897},
			Products: []Term{t("NO3", 1), t("NO2", 1)}},
		{Label: "N2O5+H2O->2HNO3", Reactants: []int{s("N2O5")}, Rate: Arrhenius{A: 1.9e-3},
			Products: []Term{t("HNO3", 2)}},
		// --- HOx / NOy ---
		{Label: "NO+OH->HONO", Reactants: []int{s("NO"), s("OH")}, Rate: Arrhenius{A: 9.8e3},
			Products: []Term{t("HONO", 1)}},
		{Label: "HONO+hv->NO+OH", Reactants: []int{s("HONO")}, Rate: Photolysis{0.117},
			Products: []Term{t("NO", 1), t("OH", 1)}},
		{Label: "NO2+OH->HNO3", Reactants: []int{s("NO2"), s("OH")}, Rate: Arrhenius{A: 1.6e4},
			Products: []Term{t("HNO3", 1)}},
		{Label: "HNO3+OH->NO3", Reactants: []int{s("HNO3"), s("OH")}, Rate: Arrhenius{A: 192},
			Products: []Term{t("NO3", 1)}},
		{Label: "HO2+NO->NO2+OH", Reactants: []int{s("HO2"), s("NO")}, Rate: Arrhenius{A: 1.2e4},
			Products: []Term{t("NO2", 1), t("OH", 1)}},
		{Label: "HO2+NO2->PNA", Reactants: []int{s("HO2"), s("NO2")}, Rate: Arrhenius{A: 2.0e3},
			Products: []Term{t("PNA", 1)}},
		{Label: "PNA->HO2+NO2", Reactants: []int{s("PNA")}, Rate: Arrhenius{A: 2.8e15, ER: 10121},
			Products: []Term{t("HO2", 1), t("NO2", 1)}},
		{Label: "PNA+OH->NO2", Reactants: []int{s("PNA"), s("OH")}, Rate: Arrhenius{A: 7.7e3},
			Products: []Term{t("NO2", 1)}},
		{Label: "HO2+HO2->H2O2", Reactants: []int{s("HO2"), s("HO2")}, Rate: Arrhenius{A: 4.1e3},
			Products: []Term{t("H2O2", 1)}},
		{Label: "H2O2+hv->2OH", Reactants: []int{s("H2O2")}, Rate: Photolysis{1.0e-3},
			Products: []Term{t("OH", 2)}},
		{Label: "H2O2+OH->HO2", Reactants: []int{s("H2O2"), s("OH")}, Rate: Arrhenius{A: 2.5e3},
			Products: []Term{t("HO2", 1)}},
		{Label: "CO+OH->HO2", Reactants: []int{s("CO"), s("OH")}, Rate: Arrhenius{A: 440},
			Products: []Term{t("HO2", 1)}},
		// --- Carbonyls ---
		{Label: "FORM+OH->HO2+CO", Reactants: []int{s("FORM"), s("OH")}, Rate: Arrhenius{A: 1.5e4},
			Products: []Term{t("HO2", 1), t("CO", 1)}},
		{Label: "FORM+hv->2HO2+CO", Reactants: []int{s("FORM")}, Rate: Photolysis{4.5e-3},
			Products: []Term{t("HO2", 2), t("CO", 1)}},
		{Label: "FORM+hv->CO", Reactants: []int{s("FORM")}, Rate: Photolysis{6.5e-3},
			Products: []Term{t("CO", 1)}},
		{Label: "ALD2+OH->C2O3", Reactants: []int{s("ALD2"), s("OH")}, Rate: Arrhenius{A: 2.4e4},
			Products: []Term{t("C2O3", 1)}},
		{Label: "ALD2+hv->FORM+CO+2HO2+XO2", Reactants: []int{s("ALD2")}, Rate: Photolysis{6.0e-4},
			Products: []Term{t("FORM", 1), t("CO", 1), t("HO2", 2), t("XO2", 1)}},
		// --- PAN cycle ---
		{Label: "C2O3+NO->NO2+FORM+HO2+XO2", Reactants: []int{s("C2O3"), s("NO")}, Rate: Arrhenius{A: 1.2e4},
			Products: []Term{t("NO2", 1), t("FORM", 1), t("HO2", 1), t("XO2", 1)}},
		{Label: "C2O3+NO2->PAN", Reactants: []int{s("C2O3"), s("NO2")}, Rate: Arrhenius{A: 1.2e4},
			Products: []Term{t("PAN", 1)}},
		{Label: "PAN->C2O3+NO2", Reactants: []int{s("PAN")}, Rate: Arrhenius{A: 8.5e17, ER: 13435},
			Products: []Term{t("C2O3", 1), t("NO2", 1)}},
		{Label: "C2O3+C2O3->2FORM+2XO2+2HO2", Reactants: []int{s("C2O3"), s("C2O3")}, Rate: Arrhenius{A: 3.7e3},
			Products: []Term{t("FORM", 2), t("XO2", 2), t("HO2", 2)}},
		// --- Lumped organics ---
		{Label: "PAR+OH->0.87XO2+0.13XO2N+0.11HO2+0.11ALD2+0.76ROR",
			Reactants: []int{s("PAR"), s("OH")}, Rate: Arrhenius{A: 1.2e3},
			Products: []Term{t("XO2", 0.87), t("XO2N", 0.13), t("HO2", 0.11), t("ALD2", 0.11), t("ROR", 0.76)}},
		{Label: "ROR->0.96XO2+1.1ALD2+0.94HO2", Reactants: []int{s("ROR")}, Rate: Arrhenius{A: 1.0e15, ER: 8000},
			Products: []Term{t("XO2", 0.96), t("ALD2", 1.1), t("HO2", 0.94)}},
		{Label: "ROR->HO2", Reactants: []int{s("ROR")}, Rate: Arrhenius{A: 1.6e3},
			Products: []Term{t("HO2", 1)}},
		{Label: "OLE+OH->FORM+ALD2+XO2+HO2", Reactants: []int{s("OLE"), s("OH")}, Rate: Arrhenius{A: 4.2e4},
			Products: []Term{t("FORM", 1), t("ALD2", 1), t("XO2", 1), t("HO2", 1)}},
		{Label: "OLE+O3->0.5ALD2+0.74FORM+0.33CO+0.44HO2+0.22XO2+0.1OH",
			Reactants: []int{s("OLE"), s("O3")}, Rate: Arrhenius{A: 21.0, ER: 2105},
			Products: []Term{t("ALD2", 0.5), t("FORM", 0.74), t("CO", 0.33), t("HO2", 0.44), t("XO2", 0.22), t("OH", 0.1)}},
		{Label: "ETH+OH->XO2+1.56FORM+0.22ALD2+HO2", Reactants: []int{s("ETH"), s("OH")}, Rate: Arrhenius{A: 1.2e4},
			Products: []Term{t("XO2", 1), t("FORM", 1.56), t("ALD2", 0.22), t("HO2", 1)}},
		{Label: "TOL+OH->0.08XO2+0.36CRES+0.44HO2+0.56TO2",
			Reactants: []int{s("TOL"), s("OH")}, Rate: Arrhenius{A: 9.1e3},
			Products: []Term{t("XO2", 0.08), t("CRES", 0.36), t("HO2", 0.44), t("TO2", 0.56)}},
		{Label: "TO2+NO->0.9NO2+0.9HO2+0.9OPEN", Reactants: []int{s("TO2"), s("NO")}, Rate: Arrhenius{A: 1.2e4},
			Products: []Term{t("NO2", 0.9), t("HO2", 0.9), t("OPEN", 0.9), t("NTR", 0.1)}},
		{Label: "CRES+OH->0.6XO2+0.6HO2+0.3OPEN", Reactants: []int{s("CRES"), s("OH")}, Rate: Arrhenius{A: 6.1e4},
			Products: []Term{t("XO2", 0.6), t("HO2", 0.6), t("OPEN", 0.3)}},
		{Label: "OPEN+hv->C2O3+HO2+CO", Reactants: []int{s("OPEN")}, Rate: Photolysis{9.0e-3},
			Products: []Term{t("C2O3", 1), t("HO2", 1), t("CO", 1)}},
		{Label: "OPEN+OH->XO2+2CO+2HO2+C2O3+FORM", Reactants: []int{s("OPEN"), s("OH")}, Rate: Arrhenius{A: 4.4e4},
			Products: []Term{t("XO2", 1), t("CO", 2), t("HO2", 2), t("C2O3", 1), t("FORM", 1)}},
		{Label: "XYL+OH->0.7HO2+0.5XO2+0.2CRES+0.8MGLY+0.3TO2",
			Reactants: []int{s("XYL"), s("OH")}, Rate: Arrhenius{A: 3.6e4},
			Products: []Term{t("HO2", 0.7), t("XO2", 0.5), t("CRES", 0.2), t("MGLY", 0.8), t("TO2", 0.3)}},
		{Label: "MGLY+hv->C2O3+HO2+CO", Reactants: []int{s("MGLY")}, Rate: Photolysis{0.02},
			Products: []Term{t("C2O3", 1), t("HO2", 1), t("CO", 1)}},
		{Label: "MGLY+OH->XO2+C2O3", Reactants: []int{s("MGLY"), s("OH")}, Rate: Arrhenius{A: 2.6e4},
			Products: []Term{t("XO2", 1), t("C2O3", 1)}},
		{Label: "ISOP+OH->XO2+FORM+0.67HO2+0.4MGLY+0.2C2O3",
			Reactants: []int{s("ISOP"), s("OH")}, Rate: Arrhenius{A: 1.5e5},
			Products: []Term{t("XO2", 1), t("FORM", 1), t("HO2", 0.67), t("MGLY", 0.4), t("C2O3", 0.2)}},
		{Label: "ISOP+O3->FORM+0.4ALD2+0.3CO+0.3HO2+0.2OH",
			Reactants: []int{s("ISOP"), s("O3")}, Rate: Arrhenius{A: 0.018},
			Products: []Term{t("FORM", 1), t("ALD2", 0.4), t("CO", 0.3), t("HO2", 0.3), t("OH", 0.2)}},
		// --- Operator species ---
		{Label: "XO2+NO->NO2", Reactants: []int{s("XO2"), s("NO")}, Rate: Arrhenius{A: 1.2e4},
			Products: []Term{t("NO2", 1)}},
		{Label: "XO2+XO2->", Reactants: []int{s("XO2"), s("XO2")}, Rate: Arrhenius{A: 2.4e3},
			Products: nil},
		{Label: "XO2+HO2->", Reactants: []int{s("XO2"), s("HO2")}, Rate: Arrhenius{A: 1.2e4},
			Products: nil},
		{Label: "XO2N+NO->NTR", Reactants: []int{s("XO2N"), s("NO")}, Rate: Arrhenius{A: 1.0e3},
			Products: []Term{t("NTR", 1)}},
		// --- Sulfur -> aerosol precursor ---
		{Label: "SO2+OH->SULF+HO2", Reactants: []int{s("SO2"), s("OH")}, Rate: Arrhenius{A: 1.5e3},
			Products: []Term{t("SULF", 1), t("HO2", 1)}},
		{Label: "SULF->ASO4", Reactants: []int{s("SULF")}, Rate: Arrhenius{A: 0.1},
			Products: []Term{t("ASO4", 1)}},
	}

	m, err := NewMechanism(specs, reactions)
	if err != nil {
		panic("species: StandardMechanism is invalid: " + err.Error())
	}
	m.kernel = standardKernel
	return m
}
