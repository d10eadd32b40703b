#include "hercules/persist_detail.hpp"

namespace herc::hercules::detail {

using util::Json;
using util::JsonArray;
using util::JsonObject;

namespace {
Json instant_json(cal::WorkInstant t) { return Json(t.minutes_since_epoch()); }
cal::WorkInstant instant_of(const Json& j) { return cal::WorkInstant(j.as_int()); }
}  // namespace

Json data_object_json(const data::DataObject& d) {
  JsonObject o;
  o.set("id", d.id.value());
  o.set("name", d.name);
  o.set("type", d.type_name);
  o.set("version", d.version);
  o.set("content", d.content);
  o.set("created", instant_json(d.created_at));
  return Json(std::move(o));
}

Json instance_json(const meta::EntityInstance& e) {
  JsonObject o;
  o.set("id", e.id.value());
  o.set("type", e.type_name);
  o.set("name", e.name);
  o.set("version", e.version);
  o.set("produced_by",
        e.produced_by.valid() ? Json(e.produced_by.value()) : Json(nullptr));
  o.set("data", e.data.valid() ? Json(e.data.value()) : Json(nullptr));
  o.set("created", instant_json(e.created_at));
  return Json(std::move(o));
}

Json run_json(const meta::Run& r) {
  JsonObject o;
  o.set("id", r.id.value());
  o.set("activity", r.activity);
  o.set("tool", r.tool_binding);
  o.set("designer", r.designer);
  JsonArray inputs;
  for (auto in : r.inputs) inputs.emplace_back(in.value());
  o.set("inputs", std::move(inputs));
  o.set("output", r.output.valid() ? Json(r.output.value()) : Json(nullptr));
  o.set("started", instant_json(r.started_at));
  o.set("finished", instant_json(r.finished_at));
  o.set("status", std::string(meta::run_status_name(r.status)));
  return Json(std::move(o));
}

util::Status restore_data_object(data::DataStore& store, const JsonObject& o) {
  data::DataObject obj;
  obj.id = util::DataObjectId{static_cast<std::uint64_t>(o.at("id").as_int())};
  obj.name = o.at("name").as_string();
  obj.type_name = o.at("type").as_string();
  obj.version = static_cast<int>(o.at("version").as_int());
  obj.content = o.at("content").as_string();
  obj.content_hash = data::content_hash(obj.content);
  obj.created_at = instant_of(o.at("created"));
  return store.restore(std::move(obj));
}

util::Status restore_instance(meta::Database& db, const JsonObject& o) {
  meta::RunId produced_by;
  if (!o.at("produced_by").is_null())
    produced_by = meta::RunId{static_cast<std::uint64_t>(o.at("produced_by").as_int())};
  util::DataObjectId data;
  if (!o.at("data").is_null())
    data = util::DataObjectId{static_cast<std::uint64_t>(o.at("data").as_int())};
  auto inst = db.create_instance(o.at("type").as_string(), o.at("name").as_string(),
                                 produced_by, data, instant_of(o.at("created")));
  if (!inst.ok()) return inst.error();
  const auto& stored = db.instance(inst.value());
  if (stored.id.value() != static_cast<std::uint64_t>(o.at("id").as_int()) ||
      stored.version != static_cast<int>(o.at("version").as_int()))
    return util::conflict("instance " + std::to_string(o.at("id").as_int()) +
                          " did not restore to the same id/version");
  return util::Status::ok_status();
}

util::Status restore_run(meta::Database& db, const schema::TaskSchema& schema,
                         const JsonObject& o) {
  meta::Run run;
  run.activity = o.at("activity").as_string();
  if (auto rule = schema.find_rule_by_activity(run.activity)) run.rule = *rule;
  run.tool_binding = o.at("tool").as_string();
  run.designer = o.at("designer").as_string();
  for (const auto& in : o.at("inputs").as_array())
    run.inputs.push_back(meta::EntityInstanceId{static_cast<std::uint64_t>(in.as_int())});
  if (!o.at("output").is_null())
    run.output =
        meta::EntityInstanceId{static_cast<std::uint64_t>(o.at("output").as_int())};
  run.started_at = instant_of(o.at("started"));
  run.finished_at = instant_of(o.at("finished"));
  const std::string& status = o.at("status").as_string();
  if (status == "completed") run.status = meta::RunStatus::kCompleted;
  else if (status == "failed") run.status = meta::RunStatus::kFailed;
  else return util::parse_error("unknown run status '" + status + "'");
  auto rid = db.record_run(std::move(run));
  if (!rid.ok()) return rid.error();
  if (rid.value().value() != static_cast<std::uint64_t>(o.at("id").as_int()))
    return util::conflict("run did not restore to the same id");
  return util::Status::ok_status();
}

}  // namespace herc::hercules::detail
