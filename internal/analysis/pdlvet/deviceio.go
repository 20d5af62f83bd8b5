package pdlvet

import (
	"go/ast"
	"go/types"
	"strings"

	"pdl/internal/analysis/vetkit"
)

// DeviceIO enforces the device-call discipline:
//
//   - no flash.Device operation may run while the mapTable lock or the
//     diff-cache lock is held — the mapping tables and the decoded-
//     differential cache are innermost state, and a device call under
//     either stalls every lock-free reader behind a flash I/O;
//   - device mutations (Program*, Erase, MarkBad) may only be issued
//     from the packages that own flash state transitions: the
//     page-update methods, the allocator, garbage collection, and the
//     device implementations themselves. Everything else (buffer pool,
//     B-tree, workloads, tools) goes through an ftl.Method;
//   - inside the core package, raw device reads (Read, ReadData,
//     ReadSpare, ReadBatch) may only be issued from the designated
//     verifying read funnels — functions whose doc comment carries a
//     `//pdlvet:ignore deviceio` directive. Everything else (foreground
//     reads, GC relocation, the recovery scan) must go
//     through a funnel, so no read path can bypass spare-area
//     verification by construction;
//   - inside the core package, page validity is DRAM state: ProgramSpare
//     is rejected outright, and the allocator call that issues it
//     (Allocator.MarkObsolete) is allowed only from a function whose doc
//     comment carries a `//pdlvet:physicalmark <reason>` directive — the
//     discard of the one page that dies holding its pid's newest time
//     stamp. Everything else retires pages through the allocator's
//     bookkeeping (NoteObsolete), which recovery's time-stamp arbitration
//     makes sufficient.
var DeviceIO = &vetkit.Analyzer{
	Name: "deviceio",
	Doc: "check that flash.Device calls never run under the mapTable or diff-cache lock,\n" +
		"that device mutations stay inside the allowlisted FTL packages, that core reads\n" +
		"the device only through its annotated verifying funnels, and that core programs\n" +
		"an obsolete flag only from its annotated physical-mark function",
	Run: runDeviceIO,
}

// deviceMethods is the full flash.Device operation surface the
// under-lock rule applies to.
var deviceMethods = map[string]bool{
	"Read": true, "ReadData": true, "ReadSpare": true, "ReadBatch": true,
	"Program": true, "ProgramBatch": true, "ProgramPartial": true, "ProgramSpare": true,
	"Erase": true, "MarkBad": true, "Sync": true,
}

// deviceMutations is the subset that changes flash state.
var deviceMutations = map[string]bool{
	"Program": true, "ProgramBatch": true, "ProgramPartial": true, "ProgramSpare": true,
	"Erase": true, "MarkBad": true,
}

// deviceReads is the subset the core-funnel rule applies to: reads that
// return page content a verifying layer must check before anyone trusts
// it.
var deviceReads = map[string]bool{
	"Read": true, "ReadData": true, "ReadSpare": true, "ReadBatch": true,
}

// mutationAllowlist names the package path elements allowed to issue
// device mutations: the FTL core and methods, the allocator, GC, the
// device implementations (including the fault-injection wrapper), and
// the conformance suite.
var mutationAllowlist = map[string]bool{
	"core": true, "ftl": true, "gc": true,
	"opu": true, "ipu": true, "ipl": true,
	"flash": true, "filedev": true, "faultdev": true, "ftltest": true,
}

// readFunnelPackages names the package path elements whose raw device
// reads must flow through an annotated verifying funnel.
var readFunnelPackages = map[string]bool{"core": true}

func runDeviceIO(pass *vetkit.Pass) error {
	parts := strings.Split(pass.Pkg.Path(), "/")
	pkgAllowed := mutationAllowlist[parts[len(parts)-1]]
	funneled := readFunnelPackages[parts[len(parts)-1]]
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			isFunnel := funnelDecl(fd)
			marks := physicalMarkDecl(fd)
			walkFunc(pass, fd, hooks{
				onCall: func(call *ast.CallExpr, callee types.Object, held lockSet) {
					if funneled && !marks && physicalMarkCall(pass.TypesInfo, call) {
						pass.Reportf(call.Pos(),
							"physical obsolete mark outside a //pdlvet:physicalmark function: page validity is DRAM state, retire the page with NoteObsolete")
					}
					name, ok := deviceCall(pass.TypesInfo, call)
					if !ok {
						return
					}
					if funneled && name == "ProgramSpare" {
						pass.Reportf(call.Pos(),
							"device ProgramSpare in core: page validity is DRAM state; the one physical mark goes through Allocator.MarkObsolete")
					}
					for _, inner := range []lockClass{classMapTable, classDCache} {
						if _, bad := held[inner]; bad {
							pass.Reportf(call.Pos(),
								"device %s call while holding the %s lock: flash I/O must never run under the %s lock",
								name, inner, inner)
						}
					}
					if deviceMutations[name] && !pkgAllowed {
						pass.Reportf(call.Pos(),
							"device mutation %s outside the FTL packages (core/ftl/gc/opu/ipu/ipl/flash/faultdev): go through an ftl.Method",
							name)
					}
					if funneled && deviceReads[name] && !isFunnel {
						pass.Reportf(call.Pos(),
							"raw device read %s outside a verifying funnel: route it through a //pdlvet:ignore deviceio annotated funnel so the bytes get verified",
							name)
					}
				},
			})
		}
	}
	return nil
}

// funnelDecl reports whether fd is a designated raw-read funnel: its doc
// comment carries a `//pdlvet:ignore deviceio` directive. The directive
// doubles as the line-level suppression for the funnel's own call sites
// when it sits directly above them, but on the doc comment it blesses
// the whole function body, so a funnel may branch between several device
// read forms.
func funnelDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//pdlvet:ignore")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) > 0 && (fields[0] == "deviceio" || fields[0] == "all") {
			return true
		}
	}
	return false
}

// physicalMarkDecl reports whether fd is the function allowed to program an
// obsolete flag: its doc comment carries `//pdlvet:physicalmark` followed by
// a reason (a bare directive explains nothing and blesses nothing).
func physicalMarkDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//pdlvet:physicalmark "); ok && strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}

// physicalMarkCall reports whether call is Allocator.MarkObsolete, the
// allocator entry that programs a page's obsolete flag.
func physicalMarkCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "MarkObsolete" && namedTypeName(info.Types[sel.X].Type) == "Allocator"
}

// deviceCall reports whether call is a method call on a flash device —
// the Device interface or one of its implementations (Chip, the
// file-backed Device) — returning the method name.
func deviceCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if !deviceMethods[name] {
		return "", false
	}
	t := info.Types[sel.X].Type
	if t == nil {
		return "", false
	}
	if tn := namedTypeName(t); tn == "Chip" || tn == "Device" {
		return name, true
	}
	return "", false
}
