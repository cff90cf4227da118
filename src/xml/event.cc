#include "xml/event.h"

namespace csxa::xml {

Event EventView::Materialize() const {
  Event e;
  e.type = type;
  e.name.assign(name);
  e.text.assign(text);
  e.attrs.reserve(num_attrs);
  for (size_t i = 0; i < num_attrs; ++i) {
    e.attrs.push_back(Attribute{std::string(attrs[i].name),
                                std::string(attrs[i].value)});
  }
  e.tag_id = tag_id;
  return e;
}

EventView ViewOf(const Event& e, std::vector<AttrView>* attr_scratch) {
  attr_scratch->clear();
  for (const Attribute& a : e.attrs) {
    attr_scratch->push_back(AttrView{a.name, a.value});
  }
  EventView v;
  v.type = e.type;
  v.name = e.name;
  v.text = e.text;
  v.attrs = attr_scratch->data();
  v.num_attrs = attr_scratch->size();
  v.tag_id = e.tag_id;
  return v;
}

}  // namespace csxa::xml
