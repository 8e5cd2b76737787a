// Circuit netlist: named nodes plus resistors, capacitors, independent
// sources, MOSFETs and nonlinear current loads.
//
// This is the substrate that replaces the proprietary SPICE deck the paper
// used: the voltage regulator of Fig. 5 is built as one of these netlists,
// defect injection mutates element values in place, and the solvers in
// dc_solver.hpp / transient.hpp evaluate it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "lpsram/device/mosfet.hpp"

namespace lpsram {

// Node handle; node 0 is always ground.
using NodeId = int;
// Element handle: index into the netlist's element list.
using ElementId = int;

inline constexpr NodeId kGround = 0;

// Two-terminal linear resistor.
struct Resistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 0.0;
};

// Two-terminal linear capacitor (open in DC, companion model in transient).
struct Capacitor {
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 0.0;
};

// Independent voltage source; contributes one branch-current unknown.
struct VSource {
  NodeId pos = kGround;
  NodeId neg = kGround;
  double volts = 0.0;
};

// Independent current source pushing `amps` from node `from` to node `to`.
struct ISource {
  NodeId from = kGround;
  NodeId to = kGround;
  double amps = 0.0;
};

// Three-terminal MOSFET (bulk implicit; see mosfet.hpp).
struct MosElement {
  Mosfet device;
  NodeId g = kGround;
  NodeId d = kGround;
  NodeId s = kGround;
};

// Evaluation of a nonlinear grounded load: returns {current leaving the node,
// d(current)/d(voltage)} at node voltage `v` and temperature `temp_c`.
using CurrentLoadFn =
    std::function<std::pair<double, double>(double v, double temp_c)>;

// Nonlinear current load from `node` to ground (e.g. aggregated core-cell
// array leakage hanging off the VDD_CC line).
struct CurrentLoad {
  NodeId node = kGround;
  CurrentLoadFn iv;
};

// One netlist element: a name plus one of the element bodies above.
struct Element {
  std::string name;
  std::variant<Resistor, Capacitor, VSource, ISource, MosElement, CurrentLoad>
      body;
};

class Netlist {
 public:
  Netlist();

  // --- topology ----------------------------------------------------------
  // Creates a named node and returns its id. Names must be unique.
  NodeId add_node(const std::string& name);
  // Looks up a node by name; throws InvalidArgument if absent.
  NodeId node(const std::string& name) const;
  // True if a node with this name exists.
  bool has_node(const std::string& name) const noexcept;
  // Number of nodes including ground.
  std::size_t node_count() const noexcept { return node_names_.size(); }
  const std::string& node_name(NodeId id) const;

  // --- element creation ---------------------------------------------------
  ElementId add_resistor(const std::string& name, NodeId a, NodeId b,
                         double ohms);
  ElementId add_capacitor(const std::string& name, NodeId a, NodeId b,
                          double farads);
  ElementId add_vsource(const std::string& name, NodeId pos, NodeId neg,
                        double volts);
  ElementId add_isource(const std::string& name, NodeId from, NodeId to,
                        double amps);
  ElementId add_mosfet(const std::string& name, const MosfetParams& params,
                       NodeId g, NodeId d, NodeId s);
  ElementId add_current_load(const std::string& name, NodeId node,
                             CurrentLoadFn iv);

  // --- element access / mutation ------------------------------------------
  std::size_t element_count() const noexcept { return elements_.size(); }
  const Element& element(ElementId id) const;
  Element& element(ElementId id);
  // Finds an element by name; throws InvalidArgument if absent.
  ElementId find(const std::string& name) const;
  bool has_element(const std::string& name) const noexcept;

  double resistance(ElementId id) const;
  void set_resistance(ElementId id, double ohms);
  double source_voltage(ElementId id) const;
  void set_source_voltage(ElementId id, double volts);
  void set_source_current(ElementId id, double amps);
  // Mutable access to a MOSFET's parameters (e.g. corner application).
  MosfetParams& mosfet_params(ElementId id);

  // Number of voltage sources (each adds one MNA branch unknown).
  std::size_t vsource_count() const noexcept { return vsource_count_; }
  // Branch index (0-based among voltage sources) of a VSource element.
  int vsource_branch(ElementId id) const;

  const std::vector<Element>& elements() const noexcept { return elements_; }

  // Order-sensitive hash of the netlist's mutable electrical state: every
  // element's value (resistance, capacitance, source level, MOSFET
  // parameters) folded in element order. Two netlists built by the same code
  // path have equal signatures iff their element values match, which is what
  // a sweep task's OperatingPointChain keys operating points on. `exclude`
  // names one element (typically the swept defect resistor) whose value is
  // left out of the hash so a resistance sweep shares a single family of
  // points; -1 excludes nothing. CurrentLoad elements hash as position-only (their behaviour is
  // a closure this function cannot see) — callers whose loads carry mutable
  // state must fold that state into the key themselves.
  std::uint64_t state_signature(ElementId exclude = -1) const noexcept;

  // Monotonic mutation stamp, drawn from a process-wide counter: every
  // mutation (element creation, value change, or handing out a mutable
  // element/parameter reference) assigns a globally fresh value. Equal
  // stamps therefore guarantee identical electrical state — copies share
  // the stamp of their source until first mutation — which is what the
  // sparse assembler's frozen-base epoch check keys on. O(1), unlike
  // state_signature(), so it is safe to read every Newton iteration.
  std::uint64_t version() const noexcept { return version_; }

 private:
  void check_node(NodeId id) const;
  // Assigns a fresh process-unique version stamp; called by every mutator.
  void touch() noexcept;

  std::vector<std::string> node_names_;
  std::vector<Element> elements_;
  std::vector<int> vsource_branches_;  // per element; -1 if not a VSource
  std::size_t vsource_count_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace lpsram
