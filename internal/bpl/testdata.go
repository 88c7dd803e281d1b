package bpl

import (
	"fmt"
	"os"
)

// LoadBlueprint parses the BluePrint policy in path, or EDTCExample when
// path is empty — the policy resolution every DAMOCLES command shares.
func LoadBlueprint(path string) (*Blueprint, error) {
	src := []byte(EDTCExample)
	var err error
	if path != "" {
		if src, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	bp, err := Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("blueprint: %w", err)
	}
	return bp, nil
}

// EDTCExample is the complete BluePrint from section 3.4 of the paper,
// transcribed from the printed listing (with the endview the printed paper
// omits after the schematic view restored).  It drives the paper's example
// design flow: five tracked views, the outofdate invalidation policy on the
// default view, automatic netlisting on schematic check-in, and LVS
// re-posting between schematic and layout.
const EDTCExample = `# The complete BluePrint of section 3.4 of
# "Controlling Change Propagation and Project Policies in IC Design".
blueprint EDTC_example

view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview

view HDL_model
    property sim_result default bad
    when hdl_sim do sim_result = $arg done
endview

view synth_lib
endview

view schematic
    property nl_sim_res default bad
    property lvs_res default not_equiv
    let state = ($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)
    # The printed listing omits "move" here, but the narrative of section
    # 3.4 states "Both links are tagged with the move keyword" for the
    # use link and this derived link; the scenario (outofdate posted from
    # the freshly checked-in HDL_model version 3 reaching the schematic)
    # only works with move semantics.
    link_from HDL_model move propagates outofdate type derived
    link_from synth_lib move propagates outofdate type depend_on
    use_link move propagates outofdate
    when nl_sim do nl_sim_res = $arg done
    when ckin do lvs_res = "$oid changed by $user"; post lvs down "$lvs_res" done
    when ckin do exec netlister "$oid" done
endview

view netlist
    property sim_result default bad
    link_from schematic propagates nl_sim, outofdate type derived
    when nl_sim do sim_result = $arg done
endview

view layout
    property drc_result default bad
    property lvs_result default not_equiv
    let state = ($drc_result == good) and ($lvs_result == is_equiv) and ($uptodate == true)
    link_from schematic propagates lvs, outofdate type equivalence
    when drc do drc_result = $arg done
    when lvs do lvs_result = $arg done
    when ckin do lvs_result = "$oid changed by $user"; post lvs up "$lvs_result" done
endview

endblueprint
`
